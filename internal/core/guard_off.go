//go:build !race && !cpmassert

package core

func (e *Engine) assertUnnamed(*query) {}

func (e *Engine) assertSearchState(*query, int) {}

func (e *Engine) assertInstalled() {}
