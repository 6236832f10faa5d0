//go:build !race && !cpmassert

package core

func (e *Engine) assertUnnamed(*query) {}
