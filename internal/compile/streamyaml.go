package compile

import (
	"bytes"
	"math/bits"

	"repro/internal/schema"
	"repro/internal/validator"
)

// This file extends the decode-free fast path to YAML request bodies: a
// streaming matcher fused on the grammar of the hand-rolled internal/yaml
// decoder, walking raw manifest bytes directly against the compiled node
// table so an ALLOWED YAML request never materializes lines, strings, or
// a decoded document.
//
// The contract is the same one-sided contract MatchRaw has for JSON:
// MatchRawYAML returns true only when the body PROVABLY decodes via
// object.ParseManifest (exactly one mapping document, no constructs the
// scanner cannot mirror byte-for-byte) and the decoded object would pass
// both validation engines. Everything else — anchors, aliases, tags,
// flow collections (beyond the encoder's empty {} / [] literals), block
// scalars, quoted keys, multi-document streams, duplicate keys, scalars
// whose decoded type is ambiguous — returns false and the caller falls
// back to the full decode + diagnostic pass, keeping verdicts and
// violations bit-identical. Equivalence is pinned by the differential
// fuzz target (FuzzRawYAMLEquivalence) and by replaying the adversarial
// robustness matrix through the YAML raw pipeline.
//
// The scanner mirrors decodeStream / parseMapping / parseSequence /
// parseValueAfterKey structurally: a cursor-based line reader computes
// {indent, comment-stripped content span} on demand (no line slice), and
// every construct the decoder would reject — indentation jumps inside a
// mapping, non-entry lines, duplicate keys — makes the scan fall back,
// so a true verdict still implies the body decodes cleanly.

// yLine is one logical line: its indentation and the content span after
// indent stripping, comment stripping, and right-trimming. start == end
// means the line is blank (empty or comment-only).
type yLine struct {
	indent     int
	start, end int
}

// Entry classification for a content line, mirroring isMappingEntry.
const (
	entryNone   = iota // not a mapping entry: a scalar (or garbage) line
	entryPlain         // plain-key mapping entry — the vouchable kind
	entryQuoted        // quoted-key mapping entry — decode-path territory
)

// Shapes of a walked value, for the required-field emptiness check.
const (
	yShapeScalar = iota
	yShapeNull
	yShapeMap
	yShapeList
)

// yVal describes the value a walk consumed: its shape and, for
// collections, the member count (eff counts mapping keys surviving the
// server-owned-metadata scrub, mirroring requiredEmpty's flagMeta case;
// it is only computed when the caller asks).
type yVal struct {
	shape   int
	members int
	eff     int
}

// yamlScan is a single pass over raw YAML bytes. As in rawScan, every
// ok=false means "fall back to the decode path" — malformed, denied, or
// merely undecidable without decoding are all the same outcome.
type yamlScan struct {
	p    *Program
	data []byte
	pos  int // byte offset of the start of the current line

	// Current-line cache: parseLine fills line/lineEnd for the line at
	// pos; advance moves past it.
	cached  bool
	line    yLine
	lineEnd int

	// One-shot in-place rewrite of the current line, modeling the
	// decoder's "- inner" dash stripping (parseSequence rewrites the
	// line to the item content at a deeper indent and re-parses it).
	ovActive bool
	ovAt     int
	ov       yLine

	// Duplicate-key hash stack, same mechanism as rawScan: the decoder
	// rejects duplicate mapping keys, so the scanner must fall back on
	// them to keep "raw allow implies body decodes" true.
	nkeys int
	khash [rawKeyStack]uint32
}

// ScanRawYAMLMeta extracts RawMeta from a raw YAML body. ok is false
// when the body is not a single mapping document the scanner can fully
// vouch for — the caller must fall back to decoding. When ok, the body
// is guaranteed to decode via object.ParseManifest and the returned
// fields equal the decoded object's Kind/APIVersion/Namespace/Name
// accessors (zero-copy sub-slices of body; a non-string value comes
// back nil the same way the accessors return "").
func ScanRawYAMLMeta(body []byte) (RawMeta, bool) {
	s := yamlScan{data: body}
	var m RawMeta
	l, ok := s.openDocument()
	if !ok {
		return m, false
	}
	indent := l.indent
	if s.dashLine(l) || s.entryKind(l) != entryPlain {
		// Non-mapping root (sequence, scalar, quoted key): ParseManifest
		// rejects or the scanner cannot vouch — decode path decides.
		return m, false
	}
	for {
		s.skipBlank()
		l, lok := s.cur()
		if !lok || s.sep(l) || l.indent < indent {
			break
		}
		if l.indent > indent {
			return m, false // decoder: unexpected indentation
		}
		ks, ke, rs, re, ek := s.splitKey(l)
		if ek != entryPlain {
			return m, false
		}
		key := s.data[ks:ke]
		if !s.noteKey(0, key) {
			return m, false
		}
		s.advance()
		switch string(key) {
		case "kind":
			seg, sok := s.metaScalar(rs, re, indent)
			if !sok {
				return m, false
			}
			m.Kind = seg
		case "apiVersion":
			seg, sok := s.metaScalar(rs, re, indent)
			if !sok {
				return m, false
			}
			m.APIVersion = seg
		case "metadata":
			ns, name, sok := s.metaBlock(rs, re, indent)
			if !sok {
				return m, false
			}
			m.Namespace, m.Name = ns, name
		default:
			if _, sok := s.valueAfterKey(rs, re, indent, -1, false, 1); !sok {
				return m, false
			}
		}
	}
	if !s.closeDocument() {
		return m, false
	}
	return m, true
}

// MatchRawYAML reports whether the raw YAML body is definitively allowed
// by the program. False means "run the decode path", not "denied".
func (p *Program) MatchRawYAML(body []byte) bool {
	meta, ok := ScanRawYAMLMeta(body)
	if !ok {
		return false
	}
	return p.MatchRawYAMLScanned(meta, body)
}

// MatchRawYAMLScanned is MatchRawYAML for a caller that already ran
// ScanRawYAMLMeta on this exact body (the enforcement point scans once
// for routing). meta MUST be the successful scan of body.
func (p *Program) MatchRawYAMLScanned(meta RawMeta, body []byte) bool {
	kp, ok := p.kinds[string(meta.Kind)]
	if !ok {
		return false // unknown (or absent) kind: decode path denies it
	}
	if len(kp.apiVersions) > 0 && len(meta.APIVersion) > 0 &&
		!kp.apiVersions[string(meta.APIVersion)] {
		return false
	}
	s := yamlScan{p: p, data: body}
	l, lok := s.openDocument()
	if !lok {
		return false
	}
	if _, wok := s.node(l, kp.root, false, 0); !wok {
		return false
	}
	return s.closeDocument()
}

// ---------------------------------------------------------------------
// Line cursor
// ---------------------------------------------------------------------

// parseLine computes the logical line at s.pos, mirroring splitLine:
// indent = leading spaces; a line whose body is empty or starts with
// '#' is blank; otherwise the trailing comment is stripped with the
// decoder's quote tracking and the content right-trimmed.
func (s *yamlScan) parseLine() {
	o := s.pos
	end := len(s.data)
	if i := bytes.IndexByte(s.data[o:], '\n'); i >= 0 {
		end = o + i
	}
	s.lineEnd = end
	i := o
	for i < end && s.data[i] == ' ' {
		i++
	}
	l := yLine{indent: i - o, start: i, end: i}
	if i == end || s.data[i] == '#' {
		s.line = l
		return
	}
	ce := end
	inS, inD := false, false
scan:
	for j := i; j < end; j++ {
		switch s.data[j] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS && (j == i || s.data[j-1] != '\\') {
				inD = !inD
			}
		case '#':
			if !inS && !inD && j > i && s.data[j-1] == ' ' {
				ce = j
				break scan
			}
		}
	}
	for ce > i && s.data[ce-1] == ' ' {
		ce--
	}
	l.end = ce
	s.line = l
}

// cur returns the current line without consuming it; ok=false at EOF.
func (s *yamlScan) cur() (yLine, bool) {
	if s.pos >= len(s.data) {
		return yLine{}, false
	}
	if !s.cached {
		s.parseLine()
		s.cached = true
	}
	if s.ovActive && s.ovAt == s.pos {
		return s.ov, true
	}
	return s.line, true
}

// advance consumes the current line. Only valid after cur().
func (s *yamlScan) advance() {
	if s.ovActive && s.ovAt == s.pos {
		s.ovActive = false
	}
	s.pos = s.lineEnd + 1
	s.cached = false
}

func (s *yamlScan) mark() int { return s.pos }

func (s *yamlScan) reset(m int) {
	if s.pos != m {
		s.pos = m
		s.cached = false
	}
}

func (s *yamlScan) setOverride(l yLine) {
	s.ovActive, s.ovAt, s.ov = true, s.pos, l
}

func (s *yamlScan) skipBlank() {
	for {
		l, ok := s.cur()
		if !ok || l.start != l.end {
			return
		}
		s.advance()
	}
}

// sep reports a document separator line ("---" or "..."), which the
// decoder honors at any indentation.
func (s *yamlScan) sep(l yLine) bool {
	c := s.data[l.start:l.end]
	return string(c) == "---" || string(c) == "..."
}

func (s *yamlScan) sepIs(l yLine, w string) bool {
	return string(s.data[l.start:l.end]) == w
}

// openDocument positions the scanner at the first content line of the
// single document the scanner can vouch for: optional blank lines, one
// optional leading "---", then content. Bodies containing '\r' or '\t'
// fall back wholesale — the decoder's CRLF rewrite and tab-sensitive
// comment rules are not worth mirroring byte-for-byte.
func (s *yamlScan) openDocument() (yLine, bool) {
	if bytes.IndexByte(s.data, '\r') >= 0 || bytes.IndexByte(s.data, '\t') >= 0 {
		return yLine{}, false
	}
	s.skipBlank()
	l, ok := s.cur()
	if !ok {
		return yLine{}, false // empty stream: ParseManifest rejects it
	}
	if s.sepIs(l, "...") {
		return yLine{}, false
	}
	if s.sepIs(l, "---") {
		s.advance()
		s.skipBlank()
		l, ok = s.cur()
		if !ok || s.sep(l) {
			// A nil document, or the onset of a second one: either way
			// not the exactly-one-mapping stream ParseManifest wants.
			return yLine{}, false
		}
	}
	return l, true
}

// closeDocument verifies nothing but blanks (and at most one trailing
// "..." terminator) remains — any further content or a second document
// makes ParseManifest reject the stream, so a fast-pass allow must too.
func (s *yamlScan) closeDocument() bool {
	s.skipBlank()
	l, ok := s.cur()
	if !ok {
		return true
	}
	if s.sepIs(l, "...") {
		s.advance()
		s.skipBlank()
		_, more := s.cur()
		return !more
	}
	return false
}

// ---------------------------------------------------------------------
// Grammar walk (structural when idx < 0, matched against the node
// otherwise)
// ---------------------------------------------------------------------

// dashLine mirrors the decoder's sequence-start test: "-" alone or "- ".
func (s *yamlScan) dashLine(l yLine) bool {
	c := s.data[l.start:l.end]
	return len(c) > 0 && c[0] == '-' && (len(c) == 1 || c[1] == ' ')
}

func (s *yamlScan) entryKind(l yLine) int {
	_, _, _, _, k := s.splitKey(l)
	return k
}

// splitKey mirrors the decoder's splitKey over the content span:
// entryPlain returns the key span [ks,ke) and the inline rest span
// [rs,re) (rs==re when the value continues on following lines). Quoted
// keys are classified but never vouched for; anything splitKey would
// reject is entryNone (the decoder then treats the line as a scalar).
func (s *yamlScan) splitKey(l yLine) (ks, ke, rs, re, kind int) {
	c := s.data[l.start:l.end]
	if len(c) == 0 {
		return 0, 0, 0, 0, entryNone
	}
	if q := c[0]; q == '"' || q == '\'' {
		i := 1
		for i < len(c) {
			if c[i] == q {
				if q == '\'' && i+1 < len(c) && c[i+1] == '\'' {
					i += 2
					continue
				}
				break
			}
			if q == '"' && c[i] == '\\' {
				i += 2
				continue
			}
			i++
		}
		if i >= len(c) {
			return 0, 0, 0, 0, entryNone
		}
		if j := i + 1; j < len(c) && c[j] == ':' && (j+1 == len(c) || c[j+1] == ' ') {
			return 0, 0, 0, 0, entryQuoted
		}
		return 0, 0, 0, 0, entryNone
	}
	depth := 0
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case '\'', '"':
			// A quote inside a plain key aborts splitKey in the decoder.
			return 0, 0, 0, 0, entryNone
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ':':
			if depth == 0 && (i+1 == len(c) || c[i+1] == ' ') {
				ke := i
				for ke > 0 && c[ke-1] == ' ' {
					ke--
				}
				if ke == 0 {
					return 0, 0, 0, 0, entryNone
				}
				rs := i + 1
				for rs < len(c) && c[rs] == ' ' {
					rs++
				}
				return l.start, l.start + ke, l.start + rs, l.end, entryPlain
			}
		}
	}
	return 0, 0, 0, 0, entryNone
}

func (s *yamlScan) noteKey(base int, key []byte) bool {
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

func (s *yamlScan) field(n *node, key []byte) *fieldRef {
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

// node parses one node starting at the current (peeked) line l,
// mirroring parseNode's dispatch: sequence, mapping, or a bare scalar
// line.
func (s *yamlScan) node(l yLine, idx int32, needEff bool, depth int) (yVal, bool) {
	if s.dashLine(l) {
		return s.seqValue(l.indent, idx, depth)
	}
	switch s.entryKind(l) {
	case entryPlain:
		return s.mapValue(l.indent, idx, needEff, depth)
	case entryQuoted:
		return yVal{}, false
	}
	s.advance()
	return s.scalarSpan(l.start, l.end, idx)
}

// valueAfterKey parses the value of a mapping entry, mirroring
// parseValueAfterKey: an inline rest, or a nested block at deeper
// indent (or a sequence at the key's own indent), or null.
func (s *yamlScan) valueAfterKey(rs, re, keyIndent int, idx int32, needEff bool, depth int) (yVal, bool) {
	if depth > maxRawDepth {
		return yVal{}, false
	}
	if rs == re {
		m := s.mark()
		s.skipBlank()
		if l, ok := s.cur(); ok && !s.sep(l) {
			if l.indent > keyIndent {
				return s.node(l, idx, needEff, depth)
			}
			if l.indent == keyIndent && s.dashLine(l) {
				return s.seqValue(keyIndent, idx, depth)
			}
		}
		s.reset(m)
		return yVal{shape: yShapeNull}, s.matchNull(idx)
	}
	if c := s.data[rs]; c == '|' || c == '>' {
		return yVal{}, false // block scalars: decode-path territory
	}
	return s.scalarSpan(rs, re, idx)
}

// mapValue pairs a block mapping with the expected node before walking
// it: only opMap walks matched; a type-string/dict scalar or wildcard
// walks structurally; every other pairing is a decoded deny → fallback.
func (s *yamlScan) mapValue(indent int, idx int32, needEff bool, depth int) (yVal, bool) {
	mi := int32(-1)
	if idx >= 0 {
		n := &s.p.nodes[idx]
		switch n.op {
		case opDeny:
			return yVal{}, false
		case opAny, opAllow:
			// structural
		case opScalar:
			sc := &s.p.scalars[n.scalar]
			if sc.typ != schema.TokDict || sc.locked {
				return yVal{}, false
			}
		case opList:
			return yVal{}, false
		default: // opMap
			mi = idx
		}
	}
	return s.mapping(indent, mi, needEff, depth)
}

// seqValue pairs a block sequence with the expected node, as mapValue.
func (s *yamlScan) seqValue(indent int, idx int32, depth int) (yVal, bool) {
	item := int32(-1)
	if idx >= 0 {
		n := &s.p.nodes[idx]
		switch n.op {
		case opDeny:
			return yVal{}, false
		case opAny, opAllow:
			// structural
		case opScalar:
			sc := &s.p.scalars[n.scalar]
			if sc.typ != schema.TokList || sc.locked {
				return yVal{}, false
			}
		case opList:
			item = n.item
		default: // opMap
			return yVal{}, false
		}
	}
	return s.sequence(indent, item, depth)
}

// mapping walks a block mapping whose keys sit at exactly indent,
// mirroring parseMapping (including its rejection of deeper indents and
// duplicate keys). idx >= 0 must be an opMap node; its fields, scrub
// flags, and required bits are enforced like walkMap does for JSON.
func (s *yamlScan) mapping(indent int, idx int32, needEff bool, depth int) (yVal, bool) {
	if depth > maxRawDepth {
		return yVal{}, false
	}
	var n *node
	var seen uint64
	if idx >= 0 {
		n = &s.p.nodes[idx]
		if n.flags&flagReqMany != 0 {
			return yVal{}, false // >64 required children: decode path
		}
	}
	base := s.nkeys
	v := yVal{shape: yShapeMap}
	for {
		s.skipBlank()
		l, ok := s.cur()
		if !ok || s.sep(l) || l.indent < indent {
			break
		}
		if l.indent > indent {
			return yVal{}, false // decoder: unexpected indentation
		}
		ks, ke, rs, re, ek := s.splitKey(l)
		if ek != entryPlain {
			return yVal{}, false
		}
		key := s.data[ks:ke]
		if !s.noteKey(base, key) {
			return yVal{}, false
		}
		v.members++
		if needEff && !validator.ScrubMetaKey(string(key)) {
			v.eff++
		}
		s.advance()
		child := int32(-1)
		childEff := false
		var req *reqRef
		if n != nil {
			if n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, string(key)) {
				// Server-owned key: invisible to validation, walk it
				// structurally.
			} else {
				f := s.field(n, key)
				if f == nil {
					return yVal{}, false
				}
				child = f.node
				if f.reqBit != 0 {
					seen |= f.reqBit
					req = &s.p.reqs[n.reqOff+int32(bits.TrailingZeros64(f.reqBit))]
					childEff = req.flags&flagMeta != 0
				}
			}
		}
		cv, cok := s.valueAfterKey(rs, re, indent, child, childEff, depth+1)
		if !cok {
			return yVal{}, false
		}
		if req != nil && yRequiredEmpty(req, cv) {
			return yVal{}, false // empty {} / [] stand-in defeats the requirement
		}
	}
	s.nkeys = base
	if n != nil && seen != n.reqBits {
		return yVal{}, false
	}
	return v, true
}

// sequence walks a block sequence whose dashes sit at exactly indent,
// mirroring parseSequence (including the dash-stripping rewrite for
// inline items). item < 0 walks structurally.
func (s *yamlScan) sequence(indent int, item int32, depth int) (yVal, bool) {
	if depth > maxRawDepth {
		return yVal{}, false
	}
	v := yVal{shape: yShapeList}
	for {
		s.skipBlank()
		l, ok := s.cur()
		if !ok || s.sep(l) {
			break
		}
		if l.indent != indent || !s.dashLine(l) {
			if l.indent > indent && s.entryKind(l) == entryNone && !s.dashLine(l) {
				return yVal{}, false // decoder: unexpected indentation in sequence
			}
			break
		}
		c := s.data[l.start:l.end]
		var iok bool
		if len(c) == 1 { // bare "-": item on following lines, or null
			s.advance()
			m := s.mark()
			s.skipBlank()
			if l2, ok2 := s.cur(); ok2 && !s.sep(l2) && l2.indent > indent {
				_, iok = s.node(l2, item, false, depth+1)
			} else {
				s.reset(m)
				iok = s.matchNull(item)
			}
		} else {
			j := l.start + 2
			for j < l.end && s.data[j] == ' ' {
				j++
			}
			if j == l.end {
				s.advance()
				iok = s.matchNull(item)
			} else {
				// Rewrite "- inner" to inner at the deeper indent and
				// re-parse it, exactly as the decoder mutates the line.
				inner := yLine{indent: l.indent + (j - l.start), start: j, end: l.end}
				s.setOverride(inner)
				_, iok = s.node(inner, item, false, depth+1)
			}
		}
		if !iok {
			return yVal{}, false
		}
		v.members++
	}
	return v, true
}

// yRequiredEmpty mirrors requiredEmpty on the shape a walk consumed.
func yRequiredEmpty(r *reqRef, v yVal) bool {
	switch r.kind {
	case validator.KindMap:
		if v.shape != yShapeMap {
			return false
		}
		if r.flags&flagMeta != 0 {
			return v.eff == 0
		}
		return v.members == 0
	case validator.KindList:
		return v.shape == yShapeList && v.members == 0
	}
	return false
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

// scalarSpan matches one inline value span, mirroring parseScalar's
// dispatch: flow (only the encoder's empty literals are vouched for),
// quoted, anchors/aliases/tags (decode errors), or a plain scalar.
func (s *yamlScan) scalarSpan(start, end int, idx int32) (yVal, bool) {
	c := s.data[start:end]
	switch c[0] {
	case '[', '{':
		if string(c) == "{}" {
			return s.emptyMap(idx)
		}
		if string(c) == "[]" {
			return s.emptyList(idx)
		}
		return yVal{}, false // general flow syntax: decode path
	case '&', '*', '!':
		return yVal{}, false // decoder rejects anchors, aliases, tags
	case '"', '\'':
		seg, clean, ok := unquoteSpan(c)
		if !ok {
			return yVal{}, false
		}
		return yVal{shape: yShapeScalar}, s.matchString(idx, seg, clean)
	}
	cls, bv := classifyPlain(c)
	switch cls {
	case yClassNull:
		return yVal{shape: yShapeNull}, s.matchNull(idx)
	case yClassBool:
		return yVal{shape: yShapeScalar}, s.matchBool(idx, bv)
	case yClassInt:
		return yVal{shape: yShapeScalar}, s.matchNum(idx, c, true)
	case yClassFloat:
		return yVal{shape: yShapeScalar}, s.matchNum(idx, c, false)
	case yClassString:
		return yVal{shape: yShapeScalar}, s.matchString(idx, c, true)
	}
	return yVal{}, false // ambiguous literal: let the decode path type it
}

// unquoteSpan vouches for a quoted scalar: ok means the whole span is
// one quoted token the decoder accepts; clean means the returned bytes
// ARE the decoded string. A backslash in a double-quoted body falls
// back entirely (escape validity and content both unknowable raw);
// doubled quotes in a single-quoted body decode but change the bytes,
// so they pass only content-free matchers.
func unquoteSpan(c []byte) (seg []byte, clean, ok bool) {
	q := c[0]
	if len(c) < 2 || c[len(c)-1] != q {
		return nil, false, false
	}
	body := c[1 : len(c)-1]
	if q == '"' {
		if bytes.IndexByte(body, '\\') >= 0 {
			return nil, false, false
		}
		return body, true, true
	}
	if bytes.IndexByte(body, '\'') >= 0 {
		return body, false, true
	}
	return body, true, true
}

// Plain-scalar classification, mirroring plainScalar's resolution
// order. yClassAmbiguous covers every literal whose decoded type the
// raw bytes do not prove (exponents, hex, leading '+', inf/nan,
// underscore digit groups, >18-digit numbers): those fall back.
const (
	yClassString = iota
	yClassNull
	yClassBool
	yClassInt
	yClassFloat
	yClassAmbiguous
)

func classifyPlain(c []byte) (cls int, boolVal bool) {
	switch string(c) {
	case "~", "null", "Null", "NULL":
		return yClassNull, false
	case "true", "True", "TRUE":
		return yClassBool, true
	case "false", "False", "FALSE":
		return yClassBool, false
	}
	if isStrictInt(c) {
		return yClassInt, false
	}
	if isStrictFloat(c) {
		return yClassFloat, false
	}
	d := c
	if d[0] == '+' || d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 {
		return yClassString, false // a bare sign parses as neither number
	}
	if len(d) >= 2 && d[0] == '0' && (d[1] == 'x' || d[1] == 'X') {
		return yClassAmbiguous, false // hex int / hex float territory
	}
	if parseFloatWord(d) {
		return yClassAmbiguous, false // inf / infinity / nan
	}
	for _, b := range d {
		switch {
		case b >= '0' && b <= '9':
		case b == '+' || b == '-' || b == '.' || b == '_' || b == 'e' || b == 'E':
		default:
			// A byte no non-hex, non-word numeric literal can contain:
			// definitely the string the raw bytes spell (the decoder
			// passes plain scalar bytes through untouched).
			return yClassString, false
		}
	}
	return yClassAmbiguous, false
}

// parseFloatWord reports the word forms strconv.ParseFloat accepts
// case-insensitively (the sign was already stripped).
func parseFloatWord(d []byte) bool {
	eqFold := func(w string) bool {
		if len(d) != len(w) {
			return false
		}
		for i := 0; i < len(w); i++ {
			if d[i]|0x20 != w[i] {
				return false
			}
		}
		return true
	}
	return eqFold("inf") || eqFold("nan") || eqFold("infinity")
}

// isStrictInt is ^-?\d{1,18}$: exactly the literals whose ParseInt
// value parseRawInt reproduces without overflow.
func isStrictInt(c []byte) bool {
	if c[0] == '-' {
		c = c[1:]
	}
	if len(c) == 0 || len(c) > maxRawNumberDigits {
		return false
	}
	for _, b := range c {
		if b < '0' || b > '9' {
			return false
		}
	}
	return true
}

// isStrictFloat is ^-?\d+\.\d+$ with <=18 total digits: guaranteed to
// ParseFloat without overflow, so the decoded value is a float64.
func isStrictFloat(c []byte) bool {
	if c[0] == '-' {
		c = c[1:]
	}
	i := 0
	for i < len(c) && c[i] >= '0' && c[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(c) || c[i] != '.' {
		return false
	}
	frac := i + 1
	for frac < len(c) && c[frac] >= '0' && c[frac] <= '9' {
		frac++
	}
	digits := i + (frac - i - 1)
	return frac == len(c) && frac > i+1 && digits <= maxRawNumberDigits
}

// numericAlphabet reports bytes that can appear in SOME literal
// strconv.ParseInt/ParseFloat accepts (decimal, exponent, hex, hex
// float, inf/nan, underscore groups). A plain scalar containing any
// byte outside this set decodes to a string, provably.
func numericAlphabet(b byte) bool {
	if b >= '0' && b <= '9' {
		return true
	}
	switch b {
	case '+', '-', '.', '_':
		return true
	}
	switch b | 0x20 {
	case 'a', 'b', 'c', 'd', 'e', 'f', 'x', 'p', 'i', 'n':
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Scalar-vs-node matchers (idx < 0 = structural, always fine)
// ---------------------------------------------------------------------

func (s *yamlScan) matchNull(idx int32) bool {
	if idx < 0 {
		return true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return true
	case opScalar:
		return rawNullOK(&s.p.scalars[n.scalar])
	}
	return false // a null where a map/list is validated: decode path denies
}

func (s *yamlScan) matchBool(idx int32, b bool) bool {
	if idx < 0 {
		return true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return true
	case opScalar:
		return rawBoolOK(&s.p.scalars[n.scalar], b)
	}
	return false
}

func (s *yamlScan) matchNum(idx int32, seg []byte, isInt bool) bool {
	if idx < 0 {
		return true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return true
	case opScalar:
		return rawNumberOK(&s.p.scalars[n.scalar], seg, isInt)
	}
	return false
}

func (s *yamlScan) matchString(idx int32, seg []byte, clean bool) bool {
	if idx < 0 {
		return true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return true
	case opScalar:
		// Unlike JSON, YAML passes raw scalar bytes through with no
		// UTF-8 coercion, so clean strings stay clean even non-ASCII.
		return rawStringOK(&s.p.scalars[n.scalar], seg, clean)
	}
	return false
}

func (s *yamlScan) emptyMap(idx int32) (yVal, bool) {
	v := yVal{shape: yShapeMap}
	if idx < 0 {
		return v, true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opAny, opAllow:
		return v, true
	case opScalar:
		sc := &s.p.scalars[n.scalar]
		return v, sc.typ == schema.TokDict && !sc.locked
	case opDeny, opList:
		return v, false
	}
	// opMap: {} passes only when nothing is required of it.
	return v, n.flags&flagReqMany == 0 && n.reqBits == 0
}

func (s *yamlScan) emptyList(idx int32) (yVal, bool) {
	v := yVal{shape: yShapeList}
	if idx < 0 {
		return v, true
	}
	n := &s.p.nodes[idx]
	switch n.op {
	case opAny, opAllow, opList:
		return v, true
	case opScalar:
		sc := &s.p.scalars[n.scalar]
		return v, sc.typ == schema.TokList && !sc.locked
	}
	return v, false
}

// ---------------------------------------------------------------------
// Metadata extraction (structural walks that remember two strings)
// ---------------------------------------------------------------------

// metaScalar consumes one mapping value that should be a plain string,
// with decoded-accessor parity: a clean string returns its bytes; a
// provably non-string value (null, bool, number, nested collection)
// returns nil, the way the accessors return ""; anything the scanner
// cannot type fails the scan.
func (s *yamlScan) metaScalar(rs, re, keyIndent int) ([]byte, bool) {
	if rs == re {
		m := s.mark()
		s.skipBlank()
		if l, ok := s.cur(); ok && !s.sep(l) {
			if l.indent > keyIndent {
				if !s.dashLine(l) && s.entryKind(l) == entryNone {
					// A scalar on the deeper next line is the key's value,
					// which the accessor would read: decode-path territory.
					return nil, false
				}
				_, wok := s.node(l, -1, false, 1)
				return nil, wok
			}
			if l.indent == keyIndent && s.dashLine(l) {
				_, wok := s.sequence(keyIndent, -1, 1)
				return nil, wok
			}
		}
		s.reset(m)
		return nil, true // null: the accessor reads ""
	}
	c := s.data[rs:re]
	switch c[0] {
	case '|', '>', '&', '*', '!':
		return nil, false
	case '[', '{':
		if string(c) == "{}" || string(c) == "[]" {
			return nil, true
		}
		return nil, false
	case '"', '\'':
		seg, clean, ok := unquoteSpan(c)
		if !ok || !clean {
			return nil, false
		}
		return seg, true
	}
	switch cls, _ := classifyPlain(c); cls {
	case yClassString:
		return c, true
	case yClassAmbiguous:
		return nil, false
	}
	return nil, true // null/bool/int/float: the accessor reads ""
}

// metaBlock consumes the metadata value, extracting namespace and name
// when it is a block mapping; any other decodable shape yields nil
// fields (the accessors read "" off a non-map metadata).
func (s *yamlScan) metaBlock(rs, re, keyIndent int) (ns, name []byte, ok bool) {
	if rs != re {
		c := s.data[rs:re]
		if c[0] == '|' || c[0] == '>' {
			return nil, nil, false
		}
		_, sok := s.scalarSpan(rs, re, -1)
		return nil, nil, sok
	}
	m := s.mark()
	s.skipBlank()
	l, lok := s.cur()
	if !lok || s.sep(l) {
		s.reset(m)
		return nil, nil, true
	}
	if l.indent == keyIndent && s.dashLine(l) {
		_, sok := s.sequence(keyIndent, -1, 2)
		return nil, nil, sok
	}
	if l.indent <= keyIndent {
		s.reset(m)
		return nil, nil, true
	}
	if s.dashLine(l) {
		_, sok := s.sequence(l.indent, -1, 2)
		return nil, nil, sok
	}
	switch s.entryKind(l) {
	case entryQuoted:
		return nil, nil, false
	case entryNone:
		s.advance()
		_, sok := s.scalarSpan(l.start, l.end, -1)
		return nil, nil, sok
	}
	indent := l.indent
	base := s.nkeys
	for {
		s.skipBlank()
		l, lok := s.cur()
		if !lok || s.sep(l) || l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, nil, false
		}
		ks, ke, vrs, vre, ek := s.splitKey(l)
		if ek != entryPlain {
			return nil, nil, false
		}
		key := s.data[ks:ke]
		if !s.noteKey(base, key) {
			return nil, nil, false
		}
		s.advance()
		switch string(key) {
		case "namespace":
			seg, sok := s.metaScalar(vrs, vre, indent)
			if !sok {
				return nil, nil, false
			}
			ns = seg
		case "name":
			seg, sok := s.metaScalar(vrs, vre, indent)
			if !sok {
				return nil, nil, false
			}
			name = seg
		default:
			if _, sok := s.valueAfterKey(vrs, vre, indent, -1, false, 2); !sok {
				return nil, nil, false
			}
		}
	}
	s.nkeys = base
	return ns, name, true
}
