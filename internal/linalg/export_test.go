package linalg

import "testing"

// ForEachActiveKernel runs body once per micro-kernel of this process
// with that kernel installed as the selected one — what package init
// would have chosen on another host or build. It is the external test
// package's only way to force a kernel; production code has none.
func ForEachActiveKernel(t *testing.T, body func(t *testing.T, kernel string)) {
	forEachActiveKernel(t, func(t *testing.T, kern *microKern) { body(t, kern.name) })
}

// SetMathHook installs f (nil removes it) to be called with +1 and -1 as a
// goroutine starts and stops driving the blocked kernel. Set it only while
// no kernel runs.
func SetMathHook(f func(delta int)) { mathHook = f }
