package naming

import "encoding/gob"

// Wire payload registration: bind broadcasts carry bindMsg, and a sync
// request and its reply the full binding table. Each package registers
// exactly the types it owns.
func init() {
	gob.Register(bindMsg{})
	gob.Register(map[string]binding{})
}
