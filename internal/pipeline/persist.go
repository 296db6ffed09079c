package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
	"kizzle/internal/winnow"
)

// This file owns the contentcache disk codecs for the pipeline's artifact
// kinds, so a saved cache snapshot restores every derived artifact a warm
// day relies on: abstract symbol sequences, unpack results, winnow
// fingerprints, label verdicts, generated signatures, and pair within-eps
// verdicts. Encodings are hand-rolled little-endian +
// uvarint — the store carries its own checksums and verification, so the
// codecs only need to be deterministic and self-delimiting.

// CacheCodecs returns the codec set for every pipeline cache kind. Pass it
// to contentcache.Save / Load to persist a pipeline cache across restarts
// (cmd/evalmonth -cachedir, cmd/kizzleshard -cachedir, and
// kizzle.Compiler.SaveCache all do).
func CacheCodecs() contentcache.Codecs {
	codecs := contentcache.Codecs{
		kindRawSymbols:  symbolsCodec{},
		kindUnpack:      unpackCodec{},
		kindFingerprint: fingerprintCodec{},
		kindLabel:       labelCodec{},
		kindSignature:   signatureCodec{},
		kindPairVerdict: verdictCodec{},
	}
	// Non-default ingest profiles store their lexer/unpacker-dependent
	// kinds at a per-profile offset (see profiledKind); register the same
	// codecs there.
	for _, id := range ingest.IDs() {
		p, _ := ingest.Lookup(id)
		if p == nil || p.KindOffset() == 0 {
			continue
		}
		codecs[profiledKind(kindRawSymbols, p)] = symbolsCodec{}
		codecs[profiledKind(kindUnpack, p)] = unpackCodec{}
		codecs[profiledKind(kindSignature, p)] = signatureCodec{}
	}
	return codecs
}

var errCorruptValue = errors.New("pipeline: corrupt cached value")

// --- primitive helpers ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errCorruptValue
	}
	return v, b[n:], nil
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil || uint64(len(b)) < n {
		return "", nil, errCorruptValue
	}
	return string(b[:n]), b[n:], nil
}

// --- kindRawSymbols: []jstoken.Symbol ---

type symbolsCodec struct{}

func (symbolsCodec) Encode(value any) ([]byte, error) {
	syms, ok := value.([]jstoken.Symbol)
	if !ok {
		return nil, fmt.Errorf("pipeline: symbols codec: %T", value)
	}
	b := appendUvarint(nil, uint64(len(syms)))
	for _, s := range syms {
		b = binary.LittleEndian.AppendUint16(b, uint16(s))
	}
	return b, nil
}

func (symbolsCodec) Decode(data []byte) (any, error) {
	n, data, err := readUvarint(data)
	// Compare n against len/2 rather than 2*n against len: the latter
	// overflows for a hostile 2^63-scale count and would pass the check.
	if err != nil || n != uint64(len(data))/2 || len(data)%2 != 0 {
		return nil, errCorruptValue
	}
	syms := make([]jstoken.Symbol, n)
	for i := range syms {
		syms[i] = jstoken.Symbol(binary.LittleEndian.Uint16(data[2*i:]))
	}
	return syms, nil
}

// --- kindUnpack: unpackEntry ---

type unpackCodec struct{}

func (unpackCodec) Encode(value any) ([]byte, error) {
	e, ok := value.(unpackEntry)
	if !ok {
		return nil, fmt.Errorf("pipeline: unpack codec: %T", value)
	}
	b := appendString(nil, e.payload)
	return appendString(b, e.method), nil
}

func (unpackCodec) Decode(data []byte) (any, error) {
	payload, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	method, data, err := readString(data)
	if err != nil || len(data) != 0 {
		return nil, errCorruptValue
	}
	return unpackEntry{payload: payload, method: method}, nil
}

// --- winnow.Config and Histogram pieces ---

func appendWinnowConfig(b []byte, cfg winnow.Config) []byte {
	b = appendUvarint(b, uint64(cfg.K))
	return appendUvarint(b, uint64(cfg.Window))
}

func readWinnowConfig(b []byte) (winnow.Config, []byte, error) {
	k, b, err := readUvarint(b)
	if err != nil {
		return winnow.Config{}, nil, err
	}
	w, b, err := readUvarint(b)
	if err != nil {
		return winnow.Config{}, nil, err
	}
	return winnow.Config{K: int(k), Window: int(w)}, b, nil
}

func appendHistogram(b []byte, h winnow.Histogram) []byte {
	b = appendUvarint(b, uint64(len(h)))
	for hash, count := range h {
		b = binary.LittleEndian.AppendUint64(b, hash)
		b = appendUvarint(b, uint64(count))
	}
	return b
}

func readHistogram(b []byte) (winnow.Histogram, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// Each entry takes ≥9 encoded bytes; a count that cannot fit the
	// remaining data is corrupt. Checking before make() keeps a bad
	// length prefix from turning into a huge allocation instead of a
	// skipped entry.
	if n > uint64(len(b))/9 {
		return nil, nil, errCorruptValue
	}
	h := make(winnow.Histogram, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 8 {
			return nil, nil, errCorruptValue
		}
		hash := binary.LittleEndian.Uint64(b)
		var count uint64
		count, b, err = readUvarint(b[8:])
		if err != nil {
			return nil, nil, err
		}
		h[hash] = int(count)
	}
	return h, b, nil
}

// --- kindFingerprint: fingerprintEntry ---

type fingerprintCodec struct{}

func (fingerprintCodec) Encode(value any) ([]byte, error) {
	e, ok := value.(fingerprintEntry)
	if !ok {
		return nil, fmt.Errorf("pipeline: fingerprint codec: %T", value)
	}
	b := appendWinnowConfig(nil, e.cfg)
	return appendHistogram(b, e.hist), nil
}

func (fingerprintCodec) Decode(data []byte) (any, error) {
	cfg, data, err := readWinnowConfig(data)
	if err != nil {
		return nil, err
	}
	hist, data, err := readHistogram(data)
	if err != nil || len(data) != 0 {
		return nil, errCorruptValue
	}
	return fingerprintEntry{cfg: cfg, hist: hist}, nil
}

// --- kindLabel: labelEntry ---
//
// Per-family verdicts are only valid for the exact family contents they
// were computed against; each family's content-derived generation is
// persisted verbatim, so a restarted process that reseeds the same corpus
// contents recomputes the same generations and keeps the warm verdicts,
// while any family whose contents differ sees a generation mismatch for
// just its slice — a stale snapshot degrades to partial misses, never a
// wrong label.

type labelCodec struct{}

func (labelCodec) Encode(value any) ([]byte, error) {
	e, ok := value.(labelEntry)
	if !ok {
		return nil, fmt.Errorf("pipeline: label codec: %T", value)
	}
	b := appendWinnowConfig(nil, e.cfg)
	b = appendUvarint(b, uint64(len(e.verdicts)))
	for _, v := range e.verdicts {
		b = appendString(b, v.Family)
		b = binary.LittleEndian.AppendUint64(b, v.Gen)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Overlap))
	}
	return b, nil
}

func (labelCodec) Decode(data []byte) (any, error) {
	cfg, data, err := readWinnowConfig(data)
	if err != nil {
		return nil, err
	}
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	// A verdict encodes to ≥17 bytes (empty family name, gen, overlap);
	// bound the pre-allocation by what the data could actually hold.
	if n > uint64(len(data))/17 {
		return nil, errCorruptValue
	}
	e := labelEntry{cfg: cfg, verdicts: make([]FamilyVerdict, 0, n)}
	for i := uint64(0); i < n; i++ {
		var v FamilyVerdict
		v.Family, data, err = readString(data)
		if err != nil || len(data) < 16 {
			return nil, errCorruptValue
		}
		v.Gen = binary.LittleEndian.Uint64(data)
		v.Overlap = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		e.verdicts = append(e.verdicts, v)
	}
	if len(data) != 0 {
		return nil, errCorruptValue
	}
	return e, nil
}

// --- kindSignature: signatureEntry ---

type signatureCodec struct{}

func (signatureCodec) Encode(value any) ([]byte, error) {
	e, ok := value.(signatureEntry)
	if !ok {
		return nil, fmt.Errorf("pipeline: signature codec: %T", value)
	}
	b := appendUvarint(nil, uint64(e.cfg.MinTokens))
	b = appendUvarint(b, uint64(e.cfg.MaxTokens))
	b = appendUvarint(b, uint64(e.cfg.LengthSlack))
	b = appendUvarint(b, uint64(e.cfg.MaxLiteral))
	b = appendString(b, e.sig.Family)
	b = appendUvarint(b, uint64(e.sig.Samples))
	b = appendUvarint(b, uint64(len(e.sig.Elements)))
	for _, el := range e.sig.Elements {
		b = appendUvarint(b, uint64(el.Kind))
		b = appendString(b, el.Literal)
		b = appendString(b, el.Class)
		b = appendUvarint(b, uint64(el.MinLen))
		b = appendUvarint(b, uint64(el.MaxLen))
		// Group is -1 for uncaptured elements; bias by one to stay
		// unsigned on the wire.
		b = appendUvarint(b, uint64(el.Group+1))
	}
	return b, nil
}

func (signatureCodec) Decode(data []byte) (any, error) {
	var e signatureEntry
	fields := []*int{&e.cfg.MinTokens, &e.cfg.MaxTokens, &e.cfg.LengthSlack, &e.cfg.MaxLiteral}
	var err error
	for _, f := range fields {
		var v uint64
		v, data, err = readUvarint(data)
		if err != nil {
			return nil, err
		}
		*f = int(v)
	}
	e.sig.Family, data, err = readString(data)
	if err != nil {
		return nil, err
	}
	samples, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	e.sig.Samples = int(samples)
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	// An element encodes to ≥6 bytes (kind, two empty strings, three
	// small ints); bound the pre-allocation accordingly.
	if n > uint64(len(data))/6 {
		return nil, errCorruptValue
	}
	e.sig.Elements = make([]siggen.Element, 0, n)
	for i := uint64(0); i < n; i++ {
		var el siggen.Element
		var kind, minLen, maxLen, group uint64
		kind, data, err = readUvarint(data)
		if err != nil {
			return nil, err
		}
		el.Literal, data, err = readString(data)
		if err != nil {
			return nil, err
		}
		el.Class, data, err = readString(data)
		if err != nil {
			return nil, err
		}
		minLen, data, err = readUvarint(data)
		if err != nil {
			return nil, err
		}
		maxLen, data, err = readUvarint(data)
		if err != nil {
			return nil, err
		}
		group, data, err = readUvarint(data)
		if err != nil {
			return nil, err
		}
		el.Kind = siggen.ElementKind(kind)
		el.MinLen, el.MaxLen, el.Group = int(minLen), int(maxLen), int(group)-1
		e.sig.Elements = append(e.sig.Elements, el)
	}
	if len(data) != 0 {
		return nil, errCorruptValue
	}
	return e, nil
}

// --- kindPairVerdict: bool ---

type verdictCodec struct{}

func (verdictCodec) Encode(value any) ([]byte, error) {
	v, ok := value.(bool)
	if !ok {
		return nil, fmt.Errorf("pipeline: verdict codec: %T", value)
	}
	if v {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (verdictCodec) Decode(data []byte) (any, error) {
	if len(data) != 1 || data[0] > 1 {
		return nil, errCorruptValue
	}
	return data[0] == 1, nil
}
