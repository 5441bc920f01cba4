package bench

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has consumed.
// Unlike wall time it does not advance while the thread is descheduled,
// so a neighbour's load on a shared host does not count against the gate.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
