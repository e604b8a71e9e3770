// Package vi is a lint fixture: a context parameter spelled through a
// type alias.
package vi

import "context"

// Ctx is context.Context under another name.
type Ctx = context.Context

// Drain takes its context second, behind the alias.
func Drain(n int, ctx Ctx) error {
	return ctx.Err()
}
