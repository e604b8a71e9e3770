// Package vi is a lint fixture: an import no package provides.
package vi

import "nosuch/pkg"

// X uses the missing import.
var X = pkg.Y
