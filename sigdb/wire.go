package sigdb

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"kizzle"
	"kizzle/internal/canonjson"
)

// The set bodies below are built by concatenating each signature's
// canonical encoding (kizzle.Signature.AppendJSON), byte for byte what
// encoding/json writes for the same values — TestWireEncodingMatchesJSON
// pins every one of them against json.Marshal. Concatenation instead of
// re-marshalling matters because one set is encoded on every publish,
// digest, delta and served response.

// appendSigList appends sigs as a JSON array ("null" for a nil list).
func appendSigList(b []byte, sigs []kizzle.Signature) []byte {
	if sigs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, sig := range sigs {
		if i > 0 {
			b = append(b, ',')
		}
		b = sig.AppendJSON(b)
	}
	return append(b, ']')
}

// appendMulti appends the omitempty "multi" field of a set body.
func appendMulti(b []byte, multi []kizzle.MultiSignature) ([]byte, error) {
	if len(multi) == 0 {
		return b, nil
	}
	enc, err := json.Marshal(multi)
	if err != nil {
		return nil, fmt.Errorf("sigdb: encode multi signatures: %w", err)
	}
	b = append(b, `,"multi":`...)
	return append(b, enc...), nil
}

// appendUpdate appends the update encoding of a set — the POST body
// form, {"signatures":[...],"multi":[...]} — whose SHA-256 is the set
// digest and whose bytes Publish compares against the live set.
func appendUpdate(b []byte, sigs []kizzle.Signature, multi []kizzle.MultiSignature) ([]byte, error) {
	b = append(b, `{"signatures":`...)
	b = appendSigList(b, sigs)
	b, err := appendMulti(b, multi)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendSnapshot appends the full Snapshot body of a set at version,
// given the set's update encoding: the version field, then the update's
// own fields.
func appendSnapshot(b []byte, version int64, update []byte) []byte {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, version, 10)
	b = append(b, ',')
	return append(b, update[1:]...)
}

// appendStrings appends a string list ("null" for a nil list).
func appendStrings(b []byte, list []string) []byte {
	if list == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = canonjson.AppendString(b, s)
	}
	return append(b, ']')
}

// appendJSON appends the delta's wire body. Changed's keys go out
// sorted, as encoding/json sorts map keys.
func (d *Delta) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, d.Version, 10)
	b = append(b, `,"since":`...)
	b = strconv.AppendInt(b, d.Since, 10)
	b = append(b, `,"delta":`...)
	b = strconv.AppendBool(b, d.IsDelta)
	b = append(b, `,"families":`...)
	b = appendStrings(b, d.Families)
	b = append(b, `,"order":`...)
	if d.Order == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, oi := range d.Order {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(oi), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"changed":`...)
	if d.Changed == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, fam := range slices.Sorted(maps.Keys(d.Changed)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, fam)
			b = append(b, ':')
			b = appendSigList(b, d.Changed[fam])
		}
		b = append(b, '}')
	}
	b, err := appendMulti(b, d.Multi)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}
