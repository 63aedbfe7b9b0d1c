package core

// SetNoReuse switches the allocation-reuse fast paths off (true) or back on
// for the runtime built from c. It exists only in this package's test binary,
// so the core_test differentials can build their never-reuse reference.
func (c *Config) SetNoReuse(off bool) { c.noReuse = off }
