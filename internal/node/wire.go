package node

import "encoding/gob"

// Wire payload registration: forwarded invocations (node.invoke) carry
// remoteInvokePayload and are answered with *invokeReply, whose Apply nests a
// batch of package replication's; forwarded deletes carry a bare object.ID,
// registered by package object. Each package registers exactly the types it
// owns.
func init() {
	gob.Register(remoteInvokePayload{})
	gob.Register(&invokeReply{})
}
