package object

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// ParseJSON decodes a JSON request body into an Object without losing
// integer precision: plain json.Unmarshal coerces every number to
// float64, so an int64 that doesn't fit the float53 mantissa (e.g.
// runAsUser: 9007199254740993) silently becomes its neighbor BEFORE the
// policy ever sees it — two adjacent UIDs validate identically. Numbers
// are normalized to the value model the rest of KubeFence speaks (int64
// when strconv.ParseInt accepts the literal, float64 otherwise),
// matching what the YAML decoder produces for manifests.
//
// A number that normalizes to neither (an exponent overflowing float64)
// is a decode error, exactly as it was for plain json.Unmarshal.
func ParseJSON(data []byte) (Object, error) {
	v, err := DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("object: request root is %s, want object", jsonRootName(v))
	}
	return Object(m), nil
}

// maxDecodeDepth bounds the nesting the decoder accepts: a value (scalar
// or container) deeper than this many enclosing containers is an error,
// the same limit encoding/json's own Decode enforces.
const maxDecodeDepth = 10000

// DecodeJSON decodes an arbitrary JSON document with the same
// precision-preserving number normalization as ParseJSON. Unlike
// json.Unmarshal it REJECTS duplicate object keys: last-writer-wins
// decoding would let an early occurrence of a key smuggle a sibling
// value past any validator that only sees the decoded map (and past
// upstream parsers that keep the first occurrence instead), so a
// duplicated key is a decode error — the same stance the YAML decoder
// takes. Keys are compared after unescaping, so "a" and "\u0061"
// collide. The streaming raw matcher relies on this: it falls back on
// duplicates, and the decode path it falls back TO must not quietly
// collapse them.
//
// The decoder is a single pass over the byte slice that allocates only
// the result tree: maps, exactly-sized slices, one string per key and
// string value (well-known Kubernetes field names reuse a shared copy),
// and boxed numbers. Its accept set and value model are encoding/json's
// (RFC 8259 syntax; escapes and surrogate pairs decoded the same way;
// invalid UTF-8 and lone surrogates become U+FFFD), plus the duplicate-
// key, depth and number-overflow rejections above. Decoded strings are
// copies, never views into data, so a string a caller retains (a
// violation, a cache entry) does not keep the request body alive.
func DecodeJSON(data []byte) (any, error) {
	d := jsonDecoder{data: data}
	d.skipSpace()
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	// Mirror json.Unmarshal's strictness: trailing non-space content
	// after the document is an error, not silently ignored.
	d.skipSpace()
	if d.pos < len(d.data) {
		return nil, fmt.Errorf("object: trailing data after JSON document at offset %d", d.pos)
	}
	return v, nil
}

// jsonDecoder is the state of one DecodeJSON call.
type jsonDecoder struct {
	data []byte
	pos  int
	// buf receives the unescaped bytes of a string that cannot be copied
	// verbatim from data.
	buf []byte
}

func (d *jsonDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntaxError reports the byte at d.pos (or the end of input) as
// unexpected in context ("looking for beginning of value", ...).
func (d *jsonDecoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("object: unexpected end of JSON document at offset %d %s", d.pos, context)
	}
	return fmt.Errorf("object: invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

// value decodes the value starting at d.pos (leading space already
// skipped) that sits inside depth enclosing containers.
func (d *jsonDecoder) value(depth int) (any, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("object: JSON document exceeds max nesting depth %d", maxDecodeDepth)
	}
	if d.pos >= len(d.data) {
		return nil, d.syntaxError("looking for beginning of value")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.object(depth)
	case c == '[':
		return d.array(depth)
	case c == '"':
		b, err := d.str()
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case c == 't':
		return true, d.literal("true")
	case c == 'f':
		return false, d.literal("false")
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.syntaxError("looking for beginning of value")
}

func (d *jsonDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func (d *jsonDecoder) object(depth int) (any, error) {
	d.pos++ // '{'
	m := map[string]any{}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return m, nil
	}
	for {
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return nil, d.syntaxError("looking for beginning of object key string")
		}
		raw, err := d.str()
		if err != nil {
			return nil, err
		}
		if _, dup := m[string(raw)]; dup {
			return nil, fmt.Errorf("object: duplicate key %q in JSON object", string(raw))
		}
		key := internKey(raw)
		d.skipSpace()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return nil, d.syntaxError("after object key")
		}
		d.pos++
		d.skipSpace()
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		m[key] = v
		d.skipSpace()
		if d.pos < len(d.data) {
			switch d.data[d.pos] {
			case ',':
				d.pos++
				d.skipSpace()
				continue
			case '}':
				d.pos++
				return m, nil
			}
		}
		return nil, d.syntaxError("after object key:value pair")
	}
}

func (d *jsonDecoder) array(depth int) (any, error) {
	d.pos++ // '['
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return []any{}, nil
	}
	// Elements collect in a frame-local buffer (spilling to the heap
	// only for long lists) so the result is one exactly-sized slice.
	var small [8]any
	elems := small[:0]
	for {
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		elems = append(elems, v)
		d.skipSpace()
		if d.pos < len(d.data) {
			switch d.data[d.pos] {
			case ',':
				d.pos++
				d.skipSpace()
				continue
			case ']':
				d.pos++
				a := make([]any, len(elems))
				copy(a, elems)
				return a, nil
			}
		}
		return nil, d.syntaxError("after array element")
	}
}

// number decodes a JSON number literal: int64 when strconv.ParseInt
// accepts it, else float64, else (float64 overflow) an error.
func (d *jsonDecoder) number() (any, error) {
	data, start := d.data, d.pos
	i := start
	if data[i] == '-' {
		i++
	}
	var ok bool
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		i, _ = skipDigits(data, i)
	default:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	}
	integer := true
	if i < len(data) && data[i] == '.' {
		integer = false
		if i, ok = skipDigits(data, i+1); !ok {
			d.pos = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i, ok = skipDigits(data, i); !ok {
			d.pos = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	d.pos = i
	lit := data[start:i]
	if integer {
		if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return n, nil
		}
	}
	if f, err := strconv.ParseFloat(string(lit), 64); err == nil {
		return f, nil
	}
	return nil, fmt.Errorf("object: number %q overflows every supported numeric type", string(lit))
}

// skipDigits returns the index after the run of digits starting at i,
// and whether that run is non-empty.
func skipDigits(data []byte, i int) (int, bool) {
	j := i
	for j < len(data) && data[j] >= '0' && data[j] <= '9' {
		j++
	}
	return j, j > i
}

// str decodes the string literal whose opening quote is at d.pos. The
// result aliases either data (a string with nothing to rewrite) or
// d.buf, and is only valid until the next call: callers copy it.
func (d *jsonDecoder) str() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	i := start
	// Fast path: a run of printable ASCII and valid UTF-8 decodes to
	// itself.
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i], nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	d.buf = append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.buf, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxError("in string literal")
		case c == '\\':
			if i+1 >= len(data) {
				d.pos = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			if b := simpleEscapes[data[i+1]]; b != 0 {
				d.buf = append(d.buf, b)
				i += 2
				continue
			}
			if data[i+1] == 'u' {
				r := hex4(data, i+2)
				if r < 0 {
					d.pos = i + 2
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) && i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(data, i+2)); dec != utf8.RuneError {
						r = dec
						i += 6
					}
				}
				// Only a well-formed pair is consumed together. A lone
				// surrogate is not a valid rune, so AppendRune writes
				// U+FFFD for it, as encoding/json does, and whatever
				// follows decodes on its own.
				d.buf = utf8.AppendRune(d.buf, r)
				continue
			}
			d.pos = i + 1
			return nil, d.syntaxError("in string escape code")
		case c < utf8.RuneSelf:
			d.buf = append(d.buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				d.buf = utf8.AppendRune(d.buf, utf8.RuneError)
			} else {
				d.buf = append(d.buf, data[i:i+size]...)
			}
			i += size
		}
	}
	d.pos = len(data)
	return nil, d.syntaxError("in string literal")
}

// simpleEscapes maps the byte after a backslash to the byte it stands
// for, for every escape but \u; zero marks an invalid escape.
var simpleEscapes = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// hex4 decodes the four hex digits at data[i:i+4], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// internKey returns the decoded key as a string, reusing a shared copy
// for well-known Kubernetes field names so the keys repeated across
// every request body cost no allocation.
func internKey(b []byte) string {
	if s, ok := knownKeys[string(b)]; ok {
		return s
	}
	return string(b)
}

var knownKeys = func() map[string]string {
	keys := []string{
		"apiVersion", "kind", "metadata", "name", "namespace", "labels",
		"annotations", "uid", "resourceVersion", "generation",
		"creationTimestamp", "ownerReferences", "finalizers", "spec", "status",
		"data", "stringData", "type", "immutable", "rules", "roleRef",
		"subjects", "apiGroup", "apiGroups", "resources", "verbs",
		"resourceNames", "replicas", "selector", "matchLabels",
		"matchExpressions", "key", "operator", "values", "template",
		"strategy", "rollingUpdate", "maxSurge", "maxUnavailable",
		"revisionHistoryLimit", "progressDeadlineSeconds", "minReadySeconds",
		"serviceName", "podManagementPolicy", "updateStrategy",
		"volumeClaimTemplates", "accessModes", "storageClassName",
		"schedule", "jobTemplate", "concurrencyPolicy", "backoffLimit",
		"restartPolicy", "containers", "initContainers", "image",
		"imagePullPolicy", "imagePullSecrets", "command", "args", "workingDir",
		"ports", "containerPort", "hostPort", "protocol", "port", "targetPort",
		"nodePort", "env", "envFrom", "value", "valueFrom", "secretKeyRef",
		"configMapKeyRef", "fieldRef", "fieldPath", "configMapRef",
		"secretRef", "optional", "limits", "requests", "cpu", "memory",
		"storage", "ephemeral-storage", "volumeMounts", "mountPath",
		"subPath", "readOnly", "volumes", "emptyDir", "configMap", "secret",
		"secretName", "items", "path", "defaultMode", "hostPath",
		"persistentVolumeClaim", "claimName", "projected", "sources",
		"livenessProbe", "readinessProbe", "startupProbe", "httpGet",
		"tcpSocket", "exec", "initialDelaySeconds", "periodSeconds",
		"timeoutSeconds", "successThreshold", "failureThreshold", "scheme",
		"lifecycle", "securityContext", "runAsUser", "runAsGroup",
		"runAsNonRoot", "fsGroup", "privileged", "allowPrivilegeEscalation",
		"readOnlyRootFilesystem", "capabilities", "add", "drop",
		"seccompProfile", "seLinuxOptions", "procMount", "hostNetwork",
		"hostPID", "hostIPC", "serviceAccountName", "serviceAccount",
		"automountServiceAccountToken", "nodeSelector", "affinity",
		"tolerations", "effect", "tolerationSeconds", "priorityClassName",
		"terminationGracePeriodSeconds", "dnsPolicy", "schedulerName",
		"hostAliases", "clusterIP", "sessionAffinity", "externalTrafficPolicy",
		"loadBalancerIP", "ingressClassName", "tls", "hosts", "host", "http",
		"paths", "pathType", "backend", "service", "number", "podSelector",
		"policyTypes", "ingress", "egress", "from", "to", "minAvailable",
		"localhostProfile", "user", "role", "level", "suspend",
		"successfulJobsHistoryLimit", "failedJobsHistoryLimit",
		"startingDeadlineSeconds", "externalIPs", "externalName",
		"ephemeralContainers", "postStart", "preStop", "secrets",
		"scaleTargetRef", "metrics", "target", "resource",
		"averageUtilization", "minReplicas", "maxReplicas",
		"publishNotReadyAddresses", "app", "helm.sh/chart",
		"app.kubernetes.io/name", "app.kubernetes.io/instance",
		"app.kubernetes.io/version", "app.kubernetes.io/component",
		"app.kubernetes.io/part-of", "app.kubernetes.io/managed-by",
	}
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = k
	}
	return m
}()

func jsonRootName(v any) string {
	switch v.(type) {
	case []any:
		return "array"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}
