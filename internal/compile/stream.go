package compile

import (
	"math/bits"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// This file is the decode-free fast path of the admission pipeline: a
// streaming JSON tokenizer that walks raw request bytes directly against
// the compiled program's node table, so an ALLOWED request never
// materializes a decoded document (no map[string]any, no string interning
// for keys, no []any for lists — the dominant hot-path cost once
// validation itself is allocation-free).
//
// The contract is deliberately one-sided: MatchRaw returns true only when
// the request is DEFINITIVELY allowed — i.e. the body is JSON the decode
// path would accept, and the decoded document would pass both the
// compiled and interpreted engines. Anything else (a genuine violation, a
// structure the scanner cannot judge byte-for-byte — escaped strings,
// huge numbers, duplicate-key subtleties, exotic matcher shapes) returns
// false, and the caller falls back to the classic decode + diagnostic
// pass, which produces the exact violation list. The fallback keeps
// verdicts and violations bit-identical to the existing engines; the
// streaming pass only decides how much work an allowed request costs.
//
// Soundness under duplicate keys: the decode path (object.ParseJSON, a
// single-pass decoder with encoding/json's accept set) rejects
// documents that duplicate a key within an object — compared after
// unescaping, so "a" and "\u0061" collide — because last-writer-wins
// decoding would let an early occurrence smuggle a sibling value past
// any validator that only sees the decoded map. The scanner therefore
// tracks the member keys of every open object scope and falls back the
// moment a key repeats — or the moment a key's decoded spelling is not
// knowable from its raw bytes (escape sequences, non-ASCII) — so a true
// verdict still implies the body decodes cleanly. The two passes stay
// aligned by construction: raw-allow ⇒ no duplicates ⇒ decode succeeds.
//
// Equivalence is pinned by the differential fuzz target
// (FuzzRawEquivalence) and by replaying the full adversarial robustness
// matrix through the raw path next to both engines.

// maxRawDepth bounds scanner recursion; deeper documents fall back to
// the decode path (object.ParseJSON allows up to 10000).
const maxRawDepth = 1000

// maxRawNumberDigits bounds the mantissa digits of a number literal the
// scanner will vouch for: up to 18 integer digits always fit int64, and
// up to 18 mantissa digits with a <=2-digit exponent can never overflow
// float64 — so "scanner accepted" implies "decode-path number
// normalization succeeds".
const maxRawNumberDigits = 18

// RawMeta is the routing metadata extracted from raw JSON bytes: what
// the enforcement point needs to resolve a workload policy before — or
// instead of — decoding the body. Fields are sub-slices of the scanned
// body (zero-copy) and mirror the decoded accessors exactly: a field
// whose value is not a plain string comes back nil, the same way
// object.Object's accessors return "".
type RawMeta struct {
	Kind       []byte
	APIVersion []byte
	Namespace  []byte
	Name       []byte
}

// ScanRawMeta extracts RawMeta from a raw JSON body. ok is false when
// the body is not an object the scanner can fully vouch for (malformed
// JSON, non-object root, escaped or non-ASCII keys, numbers the decode
// path could reject) — the caller must fall back to decoding. When ok,
// the body is guaranteed to decode successfully via object.ParseJSON
// and the returned fields equal the decoded object's Kind/APIVersion/
// Namespace/Name accessors.
func ScanRawMeta(body []byte) (RawMeta, bool) {
	s := rawScan{data: body}
	var m RawMeta
	s.skipWS()
	if !s.have('{') {
		return m, false
	}
	s.pos++
	s.skipWS()
	if s.eat('}') {
		return m, s.atEnd()
	}
	for {
		key, clean, ok := s.scanKey()
		if !ok || !clean {
			// An escaped key could decode to "kind"/"metadata"; the raw
			// view cannot know, so it must not claim the field is absent.
			return m, false
		}
		if !s.noteKey(0, key, clean) {
			return m, false
		}
		switch string(key) {
		case "kind":
			seg, ok := s.scanMetaString()
			if !ok {
				return m, false
			}
			m.Kind = seg
		case "apiVersion":
			seg, ok := s.scanMetaString()
			if !ok {
				return m, false
			}
			m.APIVersion = seg
		case "metadata":
			ns, name, ok := s.scanMetadata()
			if !ok {
				return m, false
			}
			m.Namespace, m.Name = ns, name
		default:
			if !s.skipValue(1) {
				return m, false
			}
		}
		s.skipWS()
		if s.eat(',') {
			s.skipWS()
			continue
		}
		if s.eat('}') {
			return m, s.atEnd()
		}
		return m, false
	}
}

// scanMetaString consumes one member value that should be a plain
// string. A clean string returns its bytes; any non-string value is
// structurally skipped and returns nil (the decoded accessor would
// return "" for it); a string the scanner cannot decode byte-for-byte
// (escapes, non-ASCII) fails the scan.
func (s *rawScan) scanMetaString() ([]byte, bool) {
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '"' {
		seg, clean, ok := s.scanString()
		if !ok || !clean {
			return nil, false
		}
		return seg, true
	}
	if !s.skipValue(1) {
		return nil, false
	}
	return nil, true
}

// scanMetadata consumes the metadata member value, extracting
// namespace and name.
func (s *rawScan) scanMetadata() (ns, name []byte, ok bool) {
	s.skipWS()
	if s.pos >= len(s.data) || s.data[s.pos] != '{' {
		// Non-object metadata: decoded Namespace()/Name() return "".
		if !s.skipValue(1) {
			return nil, nil, false
		}
		return nil, nil, true
	}
	s.pos++
	s.skipWS()
	if s.eat('}') {
		return nil, nil, true
	}
	base := s.nkeys
	for {
		key, clean, kok := s.scanKey()
		if !kok || !clean {
			return nil, nil, false
		}
		if !s.noteKey(base, key, clean) {
			return nil, nil, false
		}
		switch string(key) {
		case "namespace":
			seg, sok := s.scanMetaString()
			if !sok {
				return nil, nil, false
			}
			ns = seg
		case "name":
			seg, sok := s.scanMetaString()
			if !sok {
				return nil, nil, false
			}
			name = seg
		default:
			if !s.skipValue(2) {
				return nil, nil, false
			}
		}
		s.skipWS()
		if s.eat(',') {
			s.skipWS()
			continue
		}
		if s.eat('}') {
			s.nkeys = base
			return ns, name, true
		}
		return nil, nil, false
	}
}

// MatchRaw reports whether the raw JSON body is definitively allowed by
// the program: the body decodes cleanly AND the decoded object passes
// validation. A false return means "run the decode path", not "denied"
// — genuine violations, undecodable bodies, and constructs the scanner
// is conservative about all land there, where the classic engines
// produce the authoritative verdict and violation list.
func (p *Program) MatchRaw(body []byte) bool {
	meta, ok := ScanRawMeta(body)
	if !ok {
		return false
	}
	return p.MatchRawScanned(meta, body)
}

// MatchRawScanned is MatchRaw for a caller that already ran ScanRawMeta
// on this exact body (the enforcement point scans once for routing):
// it skips straight to the validation walk instead of re-tokenizing the
// body for metadata. meta MUST be the successful scan of body.
func (p *Program) MatchRawScanned(meta RawMeta, body []byte) bool {
	kp, ok := p.kinds[string(meta.Kind)]
	if !ok {
		return false // unknown (or absent) kind: decode path denies it
	}
	if len(kp.apiVersions) > 0 && len(meta.APIVersion) > 0 &&
		!kp.apiVersions[string(meta.APIVersion)] {
		return false
	}
	s := rawScan{p: p, data: body}
	s.skipWS()
	if !s.walkValue(kp.root, 0) {
		return false
	}
	return s.atEnd()
}

// rawKeyStack sizes the duplicate-key window: the sum of member keys
// across all OPEN object scopes at any instant. Documents exceeding it
// fall back to the decode path (vanishingly rare for real manifests) —
// growing the window would heap-allocate on every scan.
const rawKeyStack = 64

// rawScan is a single pass over raw JSON bytes. All methods return
// ok=false to mean "fall back to the decode path" — whether because the
// document is malformed, denied, or merely undecidable without decoding.
type rawScan struct {
	p    *Program
	data []byte
	pos  int
	// khash[:nkeys] is the duplicate-key detection stack: a hash of
	// every member key of every object scope currently open, each scope
	// delimited by the base index its opener captured. The decode path
	// rejects duplicate keys, so the scanner must fall back on them to
	// keep "raw allow ⇒ body decodes" true. Hashes (not byte slices)
	// keep the window free of pointers, so it lives in the scanner
	// struct without forcing a heap allocation per scan: equal keys
	// always collide (no duplicate is ever missed), and a collision
	// between distinct keys merely falls back conservatively.
	nkeys int
	khash [rawKeyStack]uint32
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// noteKey records one member key of the object scope opened at base and
// reports whether the scan may proceed: false on a (possible) duplicate
// (the decode path rejects the document) and on a key whose decoded
// spelling the raw bytes cannot prove (escapes, non-ASCII — such a key
// could collide with any sibling after decoding).
func (s *rawScan) noteKey(base int, key []byte, clean bool) bool {
	if !clean {
		return false
	}
	h := hashKey(key)
	for _, k := range s.khash[base:s.nkeys] {
		if k == h {
			return false
		}
	}
	if s.nkeys >= rawKeyStack {
		return false // window full: decode path's turn
	}
	s.khash[s.nkeys] = h
	s.nkeys++
	return true
}

func (s *rawScan) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// atEnd reports that only whitespace remains — json.Unmarshal rejects
// trailing content, so a fast-pass allow must too.
func (s *rawScan) atEnd() bool {
	s.skipWS()
	return s.pos == len(s.data)
}

func (s *rawScan) have(c byte) bool {
	return s.pos < len(s.data) && s.data[s.pos] == c
}

func (s *rawScan) eat(c byte) bool {
	if s.have(c) {
		s.pos++
		return true
	}
	return false
}

// scanKey consumes a member key string plus the following colon.
func (s *rawScan) scanKey() (key []byte, clean, ok bool) {
	if !s.have('"') {
		return nil, false, false
	}
	key, clean, ok = s.scanString()
	if !ok {
		return nil, false, false
	}
	s.skipWS()
	if !s.eat(':') {
		return nil, false, false
	}
	s.skipWS()
	return key, clean, true
}

// scanString consumes a string token (opening quote at s.pos) and
// returns the raw bytes between the quotes. clean means the bytes ARE
// the decoded string: no escape sequences and no bytes outside
// printable ASCII (json.Unmarshal coerces invalid UTF-8, so non-ASCII
// raw bytes cannot be trusted to equal the decoded form).
func (s *rawScan) scanString() (seg []byte, clean, ok bool) {
	s.pos++ // opening quote
	start := s.pos
	clean = true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			seg = s.data[start:s.pos]
			s.pos++
			return seg, clean, true
		case c == '\\':
			clean = false
			s.pos++
			if s.pos >= len(s.data) {
				return nil, false, false
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				if s.pos+4 > len(s.data) {
					return nil, false, false
				}
				for i := 0; i < 4; i++ {
					if !isHexDigit(s.data[s.pos+i]) {
						return nil, false, false
					}
				}
				s.pos += 4
			default:
				return nil, false, false
			}
		case c < 0x20:
			// Raw control characters are invalid JSON.
			return nil, false, false
		default:
			if c >= 0x80 {
				clean = false
			}
			s.pos++
		}
	}
	return nil, false, false
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanNumber consumes a number token. isInt means the literal has no
// fraction or exponent, so it parses exactly as int64 (the digit bound
// guarantees it fits). ok=false covers malformed literals AND literals
// the scanner won't vouch for (too many digits, >2 exponent digits) —
// those could overflow the decode path's normalization.
func (s *rawScan) scanNumber() (seg []byte, isInt, ok bool) {
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	digits := 0
	if s.pos >= len(s.data) {
		return nil, false, false
	}
	switch c := s.data[s.pos]; {
	case c == '0':
		s.pos++
		digits++
		// JSON forbids leading zeros: "0" may only be followed by
		// '.', 'e', or a delimiter.
		if s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			return nil, false, false
		}
	case c >= '1' && c <= '9':
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			digits++
		}
	default:
		return nil, false, false
	}
	isInt = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		isInt = false
		s.pos++
		fracStart := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			digits++
		}
		if s.pos == fracStart {
			return nil, false, false
		}
	}
	expDigits := 0
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		isInt = false
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		expStart := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			expDigits++
		}
		if s.pos == expStart {
			return nil, false, false
		}
	}
	if digits > maxRawNumberDigits || expDigits > 2 {
		return nil, false, false
	}
	return s.data[start:s.pos], isInt, true
}

// lit consumes an exact literal ("true", "false", "null").
func (s *rawScan) lit(w string) bool {
	if s.pos+len(w) > len(s.data) || string(s.data[s.pos:s.pos+len(w)]) != w {
		return false
	}
	s.pos += len(w)
	return true
}

// skipValue structurally consumes one value of any shape, validating it
// strictly enough that acceptance implies the decode path would accept
// it too (including number normalizability).
func (s *rawScan) skipValue(depth int) bool {
	if depth > maxRawDepth {
		return false
	}
	s.skipWS()
	if s.pos >= len(s.data) {
		return false
	}
	switch c := s.data[s.pos]; c {
	case '{':
		s.pos++
		s.skipWS()
		if s.eat('}') {
			return true
		}
		base := s.nkeys
		for {
			key, clean, ok := s.scanKey()
			if !ok {
				return false
			}
			if !s.noteKey(base, key, clean) {
				return false
			}
			if !s.skipValue(depth + 1) {
				return false
			}
			s.skipWS()
			if s.eat(',') {
				s.skipWS()
				continue
			}
			if !s.eat('}') {
				return false
			}
			s.nkeys = base
			return true
		}
	case '[':
		s.pos++
		s.skipWS()
		if s.eat(']') {
			return true
		}
		for {
			if !s.skipValue(depth + 1) {
				return false
			}
			s.skipWS()
			if s.eat(',') {
				continue
			}
			return s.eat(']')
		}
	case '"':
		_, _, ok := s.scanString()
		return ok
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	default:
		_, _, ok := s.scanNumber()
		return ok
	}
}

// walkValue validates one value against a compiled node.
func (s *rawScan) walkValue(idx int32, depth int) bool {
	if depth > maxRawDepth {
		return false
	}
	n := &s.p.nodes[idx]
	s.skipWS()
	if s.pos >= len(s.data) {
		return false
	}
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return s.skipValue(depth)
	case opScalar:
		return s.matchScalar(&s.p.scalars[n.scalar], depth)
	case opList:
		if !s.eat('[') {
			return false
		}
		s.skipWS()
		if s.eat(']') {
			return true
		}
		for {
			if !s.walkValue(n.item, depth+1) {
				return false
			}
			s.skipWS()
			if s.eat(',') {
				continue
			}
			return s.eat(']')
		}
	default: // opMap
		return s.walkMap(n, depth)
	}
}

func (s *rawScan) walkMap(n *node, depth int) bool {
	if n.flags&flagReqMany != 0 {
		// >64 required children needs the direct-lookup sweep over a
		// materialized map; exotic enough for the decode path.
		return false
	}
	if !s.eat('{') {
		return false
	}
	s.skipWS()
	var seen uint64
	if s.eat('}') {
		return seen == n.reqBits
	}
	base := s.nkeys
	for {
		key, clean, ok := s.scanKey()
		if !ok || !clean {
			return false
		}
		if !s.noteKey(base, key, clean) {
			return false
		}
		switch {
		case n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, string(key)):
			if !s.skipValue(depth + 1) {
				return false
			}
		default:
			f := s.findField(n, key)
			if f == nil {
				return false
			}
			if f.reqBit != 0 {
				seen |= f.reqBit
				r := &s.p.reqs[n.reqOff+int32(bits.TrailingZeros64(f.reqBit))]
				if !s.requiredFilled(r) {
					return false
				}
			}
			if !s.walkValue(f.node, depth+1) {
				return false
			}
		}
		s.skipWS()
		if s.eat(',') {
			s.skipWS()
			continue
		}
		if !s.eat('}') {
			return false
		}
		s.nkeys = base
		return seen == n.reqBits
	}
}

// findField resolves a raw key against the node's sorted field segment
// by binary search, comparing bytes against interned names without
// materializing a string.
func (s *rawScan) findField(n *node, key []byte) *fieldRef {
	lo, hi := n.fieldsOff, n.fieldsEnd
	for lo < hi {
		mid := (lo + hi) / 2
		f := &s.p.fields[mid]
		switch c := compareBytesString(key, f.name); {
		case c == 0:
			return f
		case c > 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil
}

// compareBytesString is bytes.Compare(b, []byte(s)) without the
// conversion.
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// requiredFilled peeks (without consuming) at the upcoming value of a
// present required field and reports whether it satisfies the
// requirement: an empty {} / [] stand-in defeats it (requiredEmpty in
// the decoded engines). The scrubbed-metadata case measures the
// effective (post-scrub) member count with a side scan.
func (s *rawScan) requiredFilled(r *reqRef) bool {
	switch r.kind {
	case validator.KindMap:
		if !s.have('{') {
			return true // non-map value: requiredEmpty is false
		}
		if r.flags&flagMeta != 0 {
			peek := *s
			return peek.effectiveMetaMembers() > 0
		}
		peek := *s
		peek.pos++
		peek.skipWS()
		return !peek.have('}')
	case validator.KindList:
		if !s.have('[') {
			return true
		}
		peek := *s
		peek.pos++
		peek.skipWS()
		return !peek.have(']')
	}
	return true
}

// effectiveMetaMembers counts the members of the upcoming object whose
// keys survive the server-owned-metadata scrub. Keys it cannot judge
// (escaped/non-ASCII) count as 0 effective members, forcing the
// conservative fallback via the required-empty deny.
func (s *rawScan) effectiveMetaMembers() int {
	if !s.eat('{') {
		return 0
	}
	s.skipWS()
	if s.eat('}') {
		return 0
	}
	count := 0
	for {
		key, clean, ok := s.scanKey()
		if !ok || !clean {
			return 0
		}
		if !validator.ScrubMetaKey(string(key)) {
			count++
		}
		if !s.skipValue(1) {
			return 0
		}
		s.skipWS()
		if s.eat(',') {
			s.skipWS()
			continue
		}
		if s.eat('}') {
			return count
		}
		return 0
	}
}

// matchScalar validates one raw value against a precompiled scalar
// matcher group, mirroring scalarOK on the value the decode path would
// produce. Anything it cannot judge exactly returns false (fallback).
func (s *rawScan) matchScalar(sc *scalar, depth int) bool {
	switch c := s.data[s.pos]; c {
	case '"':
		seg, clean, ok := s.scanString()
		if !ok {
			return false
		}
		return rawStringOK(sc, seg, clean)
	case '{':
		// A map passes the type gate only for TokDict; locked scalars
		// compare structures against values — decode path territory.
		if sc.typ != schema.TokDict || sc.locked {
			return false
		}
		return s.skipValue(depth)
	case '[':
		if sc.typ != schema.TokList || sc.locked {
			return false
		}
		return s.skipValue(depth)
	case 't':
		return s.lit("true") && rawBoolOK(sc, true)
	case 'f':
		return s.lit("false") && rawBoolOK(sc, false)
	case 'n':
		return s.lit("null") && rawNullOK(sc)
	default:
		seg, isInt, ok := s.scanNumber()
		if !ok {
			return false
		}
		return rawNumberOK(sc, seg, isInt)
	}
}

// rawStringOK mirrors scalarOK for a string whose decoded form is seg
// when clean; non-clean strings only match matchers that are
// content-independent (type string).
func rawStringOK(sc *scalar, seg []byte, clean bool) bool {
	switch sc.kind {
	case scalarExact:
		return clean && string(seg) == sc.exact
	case scalarSet:
		return clean && sc.strings[string(seg)]
	case scalarType:
		return rawStringTypeMatches(sc.typ, seg, clean)
	}
	if sc.locked {
		return clean && sc.strings[string(seg)]
	}
	if sc.typ != "" && rawStringTypeMatches(sc.typ, seg, clean) {
		return true
	}
	if !clean {
		return false
	}
	if sc.strings[string(seg)] {
		return true
	}
	for _, re := range sc.regexps {
		if re.Match(seg) {
			return true
		}
	}
	return false
}

// rawStringTypeMatches mirrors validator.TypeMatches for string values:
// the byte grammars below are exactly its intValueRe / floatValueRe /
// ipValueRe and bool constants (equivalence pinned by the differential
// fuzz target).
func rawStringTypeMatches(typ string, seg []byte, clean bool) bool {
	if typ == schema.TokString {
		// Any string is a string, whatever its bytes decode to.
		return true
	}
	if !clean {
		return false
	}
	switch typ {
	case schema.TokInt:
		return rawIntLiteral(seg)
	case schema.TokFloat:
		return rawFloatLiteral(seg)
	case schema.TokBool:
		return string(seg) == "true" || string(seg) == "false"
	case schema.TokIP:
		return rawIPLiteral(seg)
	}
	return false
}

// rawIntLiteral is ^-?\d+$ over bytes.
func rawIntLiteral(seg []byte) bool {
	if len(seg) > 0 && seg[0] == '-' {
		seg = seg[1:]
	}
	if len(seg) == 0 {
		return false
	}
	for _, c := range seg {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// rawFloatLiteral is ^-?\d+(\.\d+)?$ over bytes.
func rawFloatLiteral(seg []byte) bool {
	if len(seg) > 0 && seg[0] == '-' {
		seg = seg[1:]
	}
	i := 0
	for i < len(seg) && seg[i] >= '0' && seg[i] <= '9' {
		i++
	}
	if i == 0 {
		return false
	}
	if i == len(seg) {
		return true
	}
	if seg[i] != '.' {
		return false
	}
	i++
	start := i
	for i < len(seg) && seg[i] >= '0' && seg[i] <= '9' {
		i++
	}
	return i > start && i == len(seg)
}

// rawIPLiteral is ^(\d{1,3}\.){3}\d{1,3}$ over bytes.
func rawIPLiteral(seg []byte) bool {
	for octet := 0; octet < 4; octet++ {
		digits := 0
		for len(seg) > 0 && seg[0] >= '0' && seg[0] <= '9' && digits < 3 {
			seg = seg[1:]
			digits++
		}
		if digits == 0 {
			return false
		}
		if octet < 3 {
			if len(seg) == 0 || seg[0] != '.' {
				return false
			}
			seg = seg[1:]
		}
	}
	return len(seg) == 0
}

// rawBoolOK mirrors scalarOK for a bool value.
func rawBoolOK(sc *scalar, b bool) bool {
	switch sc.kind {
	case scalarExact, scalarSet:
		return false // string-only matchers never accept a bool
	case scalarType:
		return sc.typ == schema.TokBool
	}
	if sc.locked {
		return valuesContainBool(sc.values, b)
	}
	if sc.typ == schema.TokBool {
		return true
	}
	return valuesContainBool(sc.values, b)
}

// rawNullOK mirrors scalarOK for a JSON null (decoded nil): only an
// enumerated nil value accepts it.
func rawNullOK(sc *scalar) bool {
	switch sc.kind {
	case scalarExact, scalarSet, scalarType:
		return false
	}
	for _, v := range sc.values {
		if v == nil {
			return true
		}
	}
	return false
}

// rawNumberOK mirrors scalarOK for a number literal. Integer literals
// carry their exact int64 value (the scanner bounds the digits);
// fraction/exponent forms are only accepted through the content-free
// TokFloat type check — value comparisons on them fall back, since
// reproducing strconv's rounding bit-for-bit is not worth the risk.
func rawNumberOK(sc *scalar, seg []byte, isInt bool) bool {
	switch sc.kind {
	case scalarExact, scalarSet:
		return false
	case scalarType:
		switch sc.typ {
		case schema.TokFloat:
			return true // both int64 and float64 normalizations match
		case schema.TokInt:
			// A fraction/exponent literal may still decode to an
			// integral float64 ("1.0"); undecidable here, fall back.
			return isInt
		}
		return false
	}
	if sc.locked {
		return isInt && valuesContainInt(sc.values, parseRawInt(seg))
	}
	if sc.typ != "" {
		switch sc.typ {
		case schema.TokFloat:
			return true
		case schema.TokInt:
			if isInt {
				return true
			}
		}
	}
	return isInt && valuesContainInt(sc.values, parseRawInt(seg))
}

// parseRawInt parses an integer literal the scanner already validated
// (sign + up to 18 digits: always in int64 range).
func parseRawInt(seg []byte) int64 {
	neg := false
	if seg[0] == '-' {
		neg = true
		seg = seg[1:]
	}
	var v int64
	for _, c := range seg {
		v = v*10 + int64(c-'0')
	}
	if neg {
		return -v
	}
	return v
}

// valuesContainInt reports whether the enumeration admits the integer,
// with object.Equal's cross-type numeric semantics (int64/int exact,
// float64 only when exactly integral) — without boxing i into an any.
func valuesContainInt(values []any, i int64) bool {
	for _, v := range values {
		switch t := v.(type) {
		case int64:
			if t == i {
				return true
			}
		case int:
			if int64(t) == i {
				return true
			}
		case float64:
			if object.FloatEqualsInt(t, i) {
				return true
			}
		}
	}
	return false
}

func valuesContainBool(values []any, b bool) bool {
	for _, v := range values {
		if t, ok := v.(bool); ok && t == b {
			return true
		}
	}
	return false
}
