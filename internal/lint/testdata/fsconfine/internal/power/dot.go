package power

import . "os"

// Dump writes straight to disk through a dot-imported os.
func Dump(path string, data []byte) error {
	return WriteFile(path, data, 0o644)
}
