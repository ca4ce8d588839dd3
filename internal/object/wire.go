package object

import "encoding/gob"

// Wire payload registration: object IDs travel inside interface-typed
// payload slots (node.delete requests, repl.fetch requests, invocation
// argument lists) and attribute values (an Attr's Value, a State's), so
// their concrete types must be known to gob ([]string is one of gob's own
// basic types), and so must a State sent as a payload of its own. Each
// package registers exactly the types it owns — duplicate registrations
// panic at init.
func init() {
	gob.Register(ID(""))
	gob.Register([]ID(nil))
	gob.Register(State{})
}
