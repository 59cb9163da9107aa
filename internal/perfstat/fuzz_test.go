package perfstat

import (
	"bytes"
	"testing"
)

// FuzzParseSnapshot feeds arbitrary bytes to the snapshot reader that
// splitserve-history -perfin uses. The contract: never panic, and any
// accepted snapshot re-renders to JSON that parses back and renders to
// the same bytes — JSON then ParseSnapshot is a fixed point.
func FuzzParseSnapshot(f *testing.F) {
	snap := &Snapshot{
		Schema: SchemaV1, Commit: "deadbee", Label: "fuzz", WallSeconds: 1.5,
		EventsFired: 10, EventsPerSec: 6.25, StepWall: DurStats{Count: 3, P99US: 12.5},
		Occupancy:  Occupancy{StepFraction: 0.25, OtherFraction: 0.75},
		EventTypes: map[string]map[string]uint64{"cluster": {"job_start": 2}, "engine": {}},
	}
	full, err := snap.JSON()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(full), `{"schema":"splitserve-perfstat/v1"}`, `{"schema":"bogus/v9"}`,
		`{"schema":"splitserve-perfstat/v1","event_types":{}}`,
		`{"schema":"splitserve-perfstat/v1","wall_seconds":1e400}`,
		`{"schema":"splitserve-perfstat/v1","label":"\xff"}`,
		`{"SCHEMA":"splitserve-perfstat/v1","yields":-1}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSnapshot(data)
		if err != nil {
			if s != nil {
				t.Errorf("ParseSnapshot returned both a snapshot and error %v", err)
			}
			return
		}
		once, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted snapshot does not render: %v", err)
		}
		back, err := ParseSnapshot(once)
		if err != nil {
			t.Fatalf("rendered snapshot does not parse: %v\n%s", err, once)
		}
		twice, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Errorf("not a fixed point:\n%s\nthen\n%s", once, twice)
		}
	})
}
