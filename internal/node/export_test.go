package node

import (
	"dedisys/internal/object"
	"dedisys/internal/transport"
)

// HandleForwarded runs an invocation the way the node.invoke handler runs one
// that from forwarded, and returns the reply: a test that discards it plays a
// reply that never reached from.
func (n *Node) HandleForwarded(from transport.NodeID, target object.ID, method string, args ...any) (any, error) {
	return n.handleRemoteInvoke(from, remoteInvokePayload{Target: target, Method: method, Args: args})
}
