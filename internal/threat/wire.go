package threat

import "encoding/gob"

// Wire payload registration: the CCM ships a threat change as a Delta
// (ccm.threats) and a whole store as a threat list (ccm.threat.sync and its
// reply). Each package registers exactly the types it owns.
func init() {
	gob.Register(Threat{})
	gob.Register([]Threat(nil))
	gob.Register(Delta{})
}
