package attrib

// The encoding/json writer that the hand-written Report.JSON replaced,
// kept verbatim as the slow reference the differential and fuzz tests
// hold it to.

import (
	"bytes"
	"encoding/json"
)

// refJSON renders the report as indented, key-sorted JSON with a trailing
// newline. Same-seed runs produce byte-identical output.
func refJSON(r *Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
