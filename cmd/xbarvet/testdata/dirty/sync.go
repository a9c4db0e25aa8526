// Package dirty seeds one errcheck-durable violation for the driver tests.
package dirty

import "os"

func skipSync(f *os.File) {
	f.Sync()
}
