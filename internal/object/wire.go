package object

import "encoding/gob"

// Wire payload registration: object IDs travel inside interface-typed
// payload slots (node.delete requests, repl.fetch requests, invocation
// argument lists) and reference lists inside State's, so their concrete types
// must be known to gob ([]string is one of gob's own basic types). Each
// package registers exactly the types it owns — duplicate registrations
// panic at init.
func init() {
	gob.Register(ID(""))
	gob.Register([]ID(nil))
	gob.Register(State{})
}
