package core

// SetNoReuse switches the runtime's allocation-reuse fast paths off (true)
// or back on for the runtimes built after it. It exists only in this
// package's test binary, so the core_test differentials can build their
// never-reuse reference.
func SetNoReuse(off bool) { noReuse = off }
