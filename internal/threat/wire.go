package threat

import "encoding/gob"

// Wire payload registration: the CCM replicates threat lists — a commit's
// accepted threats and a pass's whole store (ccm.threat.add), and full stores
// (ccm.threat.pull replies). Each package registers exactly the types it owns.
func init() {
	gob.Register(Threat{})
	gob.Register([]Threat(nil))
}
