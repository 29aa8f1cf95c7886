package sweepsrv

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCanonicalize decodes arbitrary bytes the way handleSubmit does and,
// whenever the request canonicalizes, holds the cache key to its contract:
// canonicalization is idempotent, and the key is the same for the raw
// request, its canonical form, and that form after a JSON round trip (the
// shape in which a client may resubmit it). The checked-in corpus under
// testdata/fuzz covers the equivalence groups of TestKeyEquivalences,
// empty and null lists, out-of-range procs and arbiters, and upper-case
// experiment names.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&raw); err != nil {
			return
		}
		canon, err := raw.Canonicalize()
		if err != nil {
			return
		}
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form %+v does not canonicalize: %v", canon, err)
		}
		if !reflect.DeepEqual(canon, again) {
			t.Fatalf("Canonicalize not idempotent:\n once: %+v\ntwice: %+v", canon, again)
		}

		rawKey, err := raw.Key()
		if err != nil {
			t.Fatalf("Key of raw %+v: %v", raw, err)
		}
		canonKey, err := canon.Key()
		if err != nil {
			t.Fatalf("Key of canonical %+v: %v", canon, err)
		}
		buf, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("marshal canonical %+v: %v", canon, err)
		}
		var trip Request
		if err := json.Unmarshal(buf, &trip); err != nil {
			t.Fatalf("unmarshal %s: %v", buf, err)
		}
		tripKey, err := trip.Key()
		if err != nil {
			t.Fatalf("Key of round-tripped %s: %v", buf, err)
		}
		if rawKey != canonKey || canonKey != tripKey {
			t.Fatalf("keys disagree for %q:\n      raw %s\ncanonical %s\nround trip %s (%s)",
				body, rawKey, canonKey, tripKey, buf)
		}
	})
}
