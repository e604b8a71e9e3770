package power

import (
	"errors"
	"fmt"
)

// Wrap keeps the class by wrapping the cause with %w.
func Wrap(err error) error {
	if err != nil {
		return fmt.Errorf("power: analyze: %w", err)
	}
	return nil
}

// helper is unexported: internal plumbing may build errors ad hoc,
// the taxonomy applies at the API boundary.
func helper() error {
	return errors.New("power: internal probe")
}

// Describe has no error result, so its naked error never reaches a
// caller that branches on the class.
func Describe() any {
	return errors.New("power: description")
}
