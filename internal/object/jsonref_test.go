package object_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// referenceMaxDepth is object.maxDecodeDepth, restated for the external
// test package.
const referenceMaxDepth = 10000

// referenceDecodeJSON is the encoding/json Token()-based decoder that
// object.DecodeJSON replaced, kept as the differential oracle: the
// hand-written decoder must accept exactly what this accepts and
// produce reflect.DeepEqual values. Numbers decode with UseNumber and
// normalize to int64 (strconv.ParseInt) or float64; duplicate keys,
// trailing data, nesting beyond referenceMaxDepth and float64 overflow
// are errors.
func referenceDecodeJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := referenceValue(dec, 0)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("object: trailing data after JSON document")
	}
	return v, nil
}

func referenceValue(dec *json.Decoder, depth int) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("object: unexpected end of JSON document")
		}
		return nil, err
	}
	if depth > referenceMaxDepth {
		return nil, fmt.Errorf("object: JSON document exceeds max nesting depth %d", referenceMaxDepth)
	}
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			m := map[string]any{}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("object: non-string object key %v", keyTok)
				}
				if _, dup := m[key]; dup {
					return nil, fmt.Errorf("object: duplicate key %q in JSON object", key)
				}
				val, err := referenceValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				m[key] = val
			}
			if _, err := dec.Token(); err != nil { // closing '}'
				return nil, err
			}
			return m, nil
		case '[':
			a := []any{}
			for dec.More() {
				val, err := referenceValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				a = append(a, val)
			}
			if _, err := dec.Token(); err != nil { // closing ']'
				return nil, err
			}
			return a, nil
		}
		return nil, fmt.Errorf("object: unexpected delimiter %v", t)
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return i, nil
		}
		if f, err := t.Float64(); err == nil {
			return f, nil
		}
		return nil, fmt.Errorf("object: number %q overflows every supported numeric type", string(t))
	default:
		return t, nil // string, bool, or nil
	}
}
