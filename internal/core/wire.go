package core

import "encoding/gob"

// Wire payload registration: ccm.threat.remove carries []string (gob knows
// the type by itself; it is listed as every package lists what it sends).
// ccm.threat.add and ccm.threat.pull's reply carry []threat.Threat, its package's.
func init() {
	gob.Register([]string(nil))
}
