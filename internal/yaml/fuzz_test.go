package yaml_test

// Native Go fuzz target for the YAML codec. The decoder parses
// attacker-controlled request bodies at the enforcement point, so any
// panic here is a proxy denial-of-service. Seeds are drawn from the
// embedded chart filesets (real manifests, values files with comment
// enums) and from crafted attack payloads, then mutated by the fuzzer.
//
// Run continuously with:
//
//	go test -fuzz=FuzzDecode -fuzztime=10s ./internal/yaml
import (
	"testing"

	"repro/internal/charts"
	"repro/internal/yaml"
)

func FuzzDecode(f *testing.F) {
	for _, name := range charts.Names() {
		files, ok := charts.Files(name)
		if !ok {
			f.Fatalf("no fileset for chart %s", name)
		}
		for _, content := range files {
			f.Add([]byte(content))
		}
	}
	// Attack-payload shapes: host flags, privileged securityContext,
	// subPath injection, externalIPs, block scalars, flow collections.
	for _, seed := range []string{
		"kind: Pod\nspec:\n  hostNetwork: true\n  containers:\n    - name: c\n      securityContext:\n        privileged: true\n",
		"kind: Service\nspec:\n  externalIPs:\n    - 203.0.113.7\n",
		"spec:\n  template:\n    spec:\n      volumes:\n        - name: v\n          emptyDir: {}\n      containers:\n        - volumeMounts:\n            - subPath: $(Get-Content /secrets)\n",
		"a: |\n  literal\n  block\nb: >-\n  folded\nc: {flow: [1, 2.5, true, null]}\n",
		"# enum: standalone or repl\narch: standalone\n",
		"---\ndoc: 1\n---\ndoc: 2\n...\n",
		// Double-quoted scalars and keys ending in an escaped backslash.
		`k: "a\\" # note`,
		`k: ["a\\", "b"]`,
		`"a\\": 1`,
		`k: {"x": "a\\"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any input must produce a value or an error, never a panic.
		v, err := yaml.Decode(data)
		_, _ = yaml.DecodeAll(data)
		_, _, _ = yaml.DecodeWithComments(data)
		if err != nil || v == nil {
			return
		}
		// Whatever decoded must re-encode, and the encoder's output must
		// itself decode: policy serialization feeds generated validators
		// back through this codec.
		out, err := yaml.Marshal(v)
		if err != nil {
			t.Fatalf("decoded value failed to marshal: %v", err)
		}
		if _, err := yaml.Decode(out); err != nil {
			t.Fatalf("marshal output failed to re-decode: %v\ninput: %q\nmarshaled: %q", err, data, out)
		}
	})
}
