//go:build !linux

package bench

import "time"

var wallStart = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is wired
// up; the calibration ratio still cancels the host's speed, only not its
// neighbours' load.
func threadCPU() time.Duration { return time.Since(wallStart) }
