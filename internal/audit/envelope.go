package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	protocol "dmw/internal/dmw"
	"dmw/internal/group"
)

// Envelope is the serialized form of a verifiable execution record: the
// published group parameters plus the transcript. Everything in it is
// public, so the file can be handed to any third party.
type Envelope struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// Params are the published cryptographic parameters.
	Params *group.Params `json:"params"`
	// Transcript is the published execution record.
	Transcript *protocol.Transcript `json:"transcript"`
}

// envelopeVersion is the current format version.
const envelopeVersion = 1

// Save writes an envelope as indented JSON.
func Save(w io.Writer, params *group.Params, tr *protocol.Transcript) error {
	if params == nil || tr == nil {
		return errors.New("audit: nil params or transcript")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Envelope{Version: envelopeVersion, Params: params, Transcript: tr})
}

// SaveEncoded writes the same bytes as Save for a transcript already
// encoded with json.Marshal, without decoding it: dmwd keeps recorded
// transcripts in that form.
func SaveEncoded(w io.Writer, params *group.Params, tr json.RawMessage) error {
	if params == nil || len(tr) == 0 {
		return errors.New("audit: nil params or transcript")
	}
	head, err := json.Marshal(Envelope{Version: envelopeVersion, Params: params})
	if err != nil {
		return fmt.Errorf("audit: encoding envelope: %w", err)
	}
	// Transcript is Envelope's last field: swap its null for the bytes.
	if !bytes.HasSuffix(head, []byte(`"transcript":null}`)) {
		return errors.New("audit: unexpected envelope layout")
	}
	head = head[:len(head)-len(`null}`)]
	compact := append(append(head, tr...), '}')
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return fmt.Errorf("audit: encoding envelope: %w", err)
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}

// Load reads an envelope written by Save.
func Load(r io.Reader) (*Envelope, error) {
	var env Envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("audit: decoding envelope: %w", err)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("audit: unsupported envelope version %d", env.Version)
	}
	if env.Params == nil || env.Transcript == nil {
		return nil, errors.New("audit: incomplete envelope")
	}
	if err := env.Params.Validate(); err != nil {
		return nil, fmt.Errorf("audit: envelope parameters: %w", err)
	}
	return &env, nil
}
