package obs

import (
	"strconv"
)

// EventRecord is the portable JSON form of an Event, used by the raw
// /trace endpoint, the cluster collector, and flight-recorder bundles.
// 64-bit payloads that may exceed 2^53 (trace ids, values) are encoded
// as 0x-prefixed hex strings so non-Go tooling never rounds them.
type EventRecord struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Domain string `json:"domain"` // "vm" or "wall"
	Actor  int32  `json:"actor"`
	Time   uint64 `json:"time"`
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	Label  string `json:"label,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

func hexWord(v uint64) string {
	if v == 0 {
		return ""
	}
	return "0x" + strconv.FormatUint(v, 16)
}

// ParseHexWord decodes the 0x-hex (or decimal) encoding used by
// EventRecord and flight bundles; the empty string is zero.
func ParseHexWord(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 0, 64)
}

// ToRecord converts an in-memory Event to its portable form.
func ToRecord(ev Event) EventRecord {
	dom := "vm"
	if ev.Domain == DomainWall {
		dom = "wall"
	}
	return EventRecord{
		Seq:    ev.Seq,
		Kind:   ev.Kind.String(),
		Domain: dom,
		Actor:  ev.Actor,
		Time:   ev.Time,
		A:      hexWord(ev.A),
		B:      hexWord(ev.B),
		Label:  ev.Label,
		Trace:  hexWord(ev.TraceID),
	}
}

// ToRecords maps ToRecord over a snapshot.
func ToRecords(evs []Event) []EventRecord {
	out := make([]EventRecord, len(evs))
	for i, ev := range evs {
		out[i] = ToRecord(ev)
	}
	return out
}
