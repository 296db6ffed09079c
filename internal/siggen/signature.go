package siggen

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"kizzle/internal/canonjson"
	"kizzle/internal/jstoken"
)

// ElementKind discriminates signature elements.
type ElementKind int

// Element kinds.
const (
	// KindLiteral matches one exact normalized token text.
	KindLiteral ElementKind = iota + 1
	// KindClass matches any string over a character class with a length
	// in [MinLen, MaxLen].
	KindClass
	// KindBackref matches exactly the string captured by an earlier
	// KindClass element with the same Group.
	KindBackref
)

// Element is one token position of a structural signature.
type Element struct {
	Kind ElementKind `json:"kind"`
	// Literal is the exact normalized token text (KindLiteral).
	Literal string `json:"literal,omitempty"`
	// Class is the rendered character class name (KindClass).
	Class string `json:"class,omitempty"`
	// MinLen/MaxLen bound the matched length (KindClass).
	MinLen int `json:"minLen,omitempty"`
	MaxLen int `json:"maxLen,omitempty"`
	// Group numbers capturing class elements; -1 when the element is
	// neither captured nor a reference.
	Group int `json:"group"`
}

// Signature is a compiled structural signature for one malicious cluster.
type Signature struct {
	// Family is the exploit-kit family label of the source cluster.
	Family string `json:"family"`
	// Elements, one per token offset of the common run.
	Elements []Element `json:"elements"`
	// Samples is the number of cluster samples the signature was
	// generalized from.
	Samples int `json:"samples"`
}

// AppendJSON appends the signature's canonical encoding, byte for byte
// what json.Marshal(s) writes: fields in declaration order, omitempty
// honored, strings escaped as encoding/json escapes them. The published
// set digest is a hash of these bytes, so the two must never drift —
// FuzzSignatureJSON pins them together.
func (s Signature) AppendJSON(b []byte) []byte {
	b = append(b, `{"family":`...)
	b = canonjson.AppendString(b, s.Family)
	b = append(b, `,"elements":`...)
	if s.Elements == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range s.Elements {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"kind":`...)
			b = strconv.AppendInt(b, int64(e.Kind), 10)
			if e.Literal != "" {
				b = append(b, `,"literal":`...)
				b = canonjson.AppendString(b, e.Literal)
			}
			if e.Class != "" {
				b = append(b, `,"class":`...)
				b = canonjson.AppendString(b, e.Class)
			}
			if e.MinLen != 0 {
				b = append(b, `,"minLen":`...)
				b = strconv.AppendInt(b, int64(e.MinLen), 10)
			}
			if e.MaxLen != 0 {
				b = append(b, `,"maxLen":`...)
				b = strconv.AppendInt(b, int64(e.MaxLen), 10)
			}
			b = append(b, `,"group":`...)
			b = strconv.AppendInt(b, int64(e.Group), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"samples":`...)
	b = strconv.AppendInt(b, int64(s.Samples), 10)
	return append(b, '}')
}

// Config controls signature generation.
type Config struct {
	// MinTokens discards signatures whose common run is shorter than
	// this ("short sequences are discarded").
	MinTokens int
	// MaxTokens caps the common-run search (the paper caps at 200).
	MaxTokens int
	// LengthSlack widens every inferred class's length bounds by this
	// many characters in each direction. The paper's algorithm accepts
	// exactly "strings of the observed lengths" (slack 0), which makes
	// signatures brittle across days when clusters are small; Kizzle
	// compensates by regenerating daily. Positive slack trades a little
	// precision for cross-day robustness (see the ablation benchmarks).
	LengthSlack int
	// MaxLiteral caps how long a concrete token may be embedded verbatim
	// in the signature. Longer constant tokens (e.g. a kit's multi-KB
	// encoded payload when it happens to be identical across a cluster)
	// are abstracted to a length-constrained character class instead,
	// keeping signatures in the size range AV engines deploy (Figure 12
	// tops out under 2,000 characters).
	MaxLiteral int
}

// DefaultConfig matches the paper's parameters.
func DefaultConfig() Config { return Config{MinTokens: 10, MaxTokens: 200, MaxLiteral: 64} }

// Errors returned by Generate and GenerateWindows.
var (
	ErrNoCommonRun = errors.New("siggen: no sufficiently long unique common token run")
	ErrNoSamples   = errors.New("siggen: cluster has no samples")
	// ErrWindowDrift reports a token window whose symbols are not the
	// common run it was cut for: the symbol and token lexers disagree.
	ErrWindowDrift = errors.New("siggen: token window does not match its symbol run")
)

// Generate builds a signature from the tokenized packed samples of one
// malicious cluster.
func Generate(family string, samples [][]jstoken.Token, cfg Config) (Signature, error) {
	seqs := make([][]jstoken.Symbol, len(samples))
	for i, s := range samples {
		seqs[i] = jstoken.Abstract(s)
	}
	return GenerateWindows(family, seqs, func(i, lo, hi int) []jstoken.Token { return samples[i][lo:hi] }, cfg)
}

// GenerateWindows builds the signature Generate builds, from the
// samples' abstract symbol sequences and only the token values it uses:
// the common run is found on seqs (Fig. 9 works on abstract tokens), and
// window(i, lo, hi) is asked once per sample for tokens lo through hi-1
// of sample i, the run's own offsets. A window whose symbols differ from
// seqs[i][lo:hi] fails generation with ErrWindowDrift.
func GenerateWindows(family string, seqs [][]jstoken.Symbol, window func(i, lo, hi int) []jstoken.Token, cfg Config) (Signature, error) {
	if len(seqs) == 0 {
		return Signature{}, ErrNoSamples
	}
	if cfg.MinTokens <= 0 {
		cfg.MinTokens = DefaultConfig().MinTokens
	}
	if cfg.MaxTokens <= 0 {
		cfg.MaxTokens = DefaultConfig().MaxTokens
	}
	run, ok := FindCommonRun(seqs, cfg.MinTokens, cfg.MaxTokens)
	if !ok {
		return Signature{}, ErrNoCommonRun
	}
	windows := make([][]jstoken.Token, len(seqs))
	for i, start := range run.Starts {
		w := window(i, start, start+run.Length)
		if !windowMatches(w, seqs[i][start:start+run.Length]) {
			return Signature{}, fmt.Errorf("%w: sample %d, tokens [%d, %d)", ErrWindowDrift, i, start, start+run.Length)
		}
		windows[i] = w
	}

	var gs groupState
	elements := gs.build(windows, CommonRun{Length: run.Length, Starts: make([]int, len(seqs))}, cfg)
	return Signature{Family: family, Elements: elements, Samples: len(seqs)}, nil
}

// windowMatches reports whether tokens abstract to exactly syms.
func windowMatches(tokens []jstoken.Token, syms []jstoken.Symbol) bool {
	if len(tokens) != len(syms) {
		return false
	}
	for i := range tokens {
		if tokens[i].Symbol() != syms[i] {
			return false
		}
	}
	return true
}

// groupState carries capture-group numbering across element construction —
// shared between the runs of a multi-sequence signature so a templatized
// variable reused in a later run still becomes a back-reference.
type groupState struct {
	// values[g] holds the per-sample values captured by group g, used to
	// detect back-references (the Nuclear signature's var1/var2 reuse in
	// Figure 10).
	values [][]string
}

// build constructs the elements for one common run.
func (gs *groupState) build(samples [][]jstoken.Token, run CommonRun, cfg Config) []Element {
	// For each offset of the run, the normalized concrete values across
	// samples (Figure 9's "distinct set of concrete strings found ... at
	// that token offset").
	elements := make([]Element, 0, run.Length)
	for o := 0; o < run.Length; o++ {
		col := make([]string, len(samples))
		for i, s := range samples {
			col[i] = s[run.Starts[i]+o].Value()
		}
		if allEqual(col) {
			if cfg.MaxLiteral > 0 && len(col[0]) > cfg.MaxLiteral {
				// Abstract oversized constants to an uncaptured,
				// length-exact class.
				cls := inferClass(col[:1])
				elements = append(elements, Element{
					Kind:   KindClass,
					Class:  cls.Name,
					MinLen: len(col[0]),
					MaxLen: len(col[0]),
					Group:  -1,
				})
				continue
			}
			elements = append(elements, Element{Kind: KindLiteral, Literal: col[0], Group: -1})
			continue
		}
		if g, ok := matchingGroup(gs.values, col); ok {
			elements = append(elements, Element{Kind: KindBackref, Group: g})
			continue
		}
		cls := inferClass(col)
		minLen, maxLen := lengthRange(col)
		if cfg.LengthSlack > 0 {
			minLen -= cfg.LengthSlack
			if minLen < 0 {
				minLen = 0
			}
			maxLen += cfg.LengthSlack
		}
		elements = append(elements, Element{
			Kind:   KindClass,
			Class:  cls.Name,
			MinLen: minLen,
			MaxLen: maxLen,
			Group:  len(gs.values),
		})
		gs.values = append(gs.values, col)
	}
	return elements
}

func allEqual(col []string) bool {
	for _, v := range col[1:] {
		if v != col[0] {
			return false
		}
	}
	return true
}

// matchingGroup reports whether col equals, sample-for-sample, the values
// already captured by some earlier group.
func matchingGroup(groups [][]string, col []string) (int, bool) {
	for g, gv := range groups {
		same := true
		for i := range col {
			if gv[i] != col[i] {
				same = false
				break
			}
		}
		if same {
			return g, true
		}
	}
	return 0, false
}

func lengthRange(col []string) (minLen, maxLen int) {
	minLen, maxLen = len(col[0]), len(col[0])
	for _, v := range col[1:] {
		if len(v) < minLen {
			minLen = len(v)
		}
		if len(v) > maxLen {
			maxLen = len(v)
		}
	}
	return minLen, maxLen
}

// TokenLength returns the length of the signature in tokens.
func (s Signature) TokenLength() int { return len(s.Elements) }

// Regex renders the signature in the AV-deployable regex dialect shown in
// Figure 10: literals are escaped, varying offsets become named groups
// ((?<varN>[0-9a-zA-Z]{3,6})), and reused variables become \k<varN>
// back-references. The rendering is for deployment/display; matching inside
// Kizzle uses the structural form directly (Go's RE2 has no
// back-references).
func (s Signature) Regex() string {
	var sb strings.Builder
	for _, e := range s.Elements {
		switch e.Kind {
		case KindLiteral:
			sb.WriteString(regexp.QuoteMeta(e.Literal))
		case KindClass:
			if e.Group < 0 {
				sb.WriteString(e.Class + quantifier(e.MinLen, e.MaxLen))
			} else {
				fmt.Fprintf(&sb, "(?<var%d>%s%s)", e.Group, e.Class, quantifier(e.MinLen, e.MaxLen))
			}
		case KindBackref:
			fmt.Fprintf(&sb, `\k<var%d>`, e.Group)
		}
	}
	return sb.String()
}

func quantifier(minLen, maxLen int) string {
	if minLen == maxLen {
		return fmt.Sprintf("{%d}", minLen)
	}
	return fmt.Sprintf("{%d,%d}", minLen, maxLen)
}

// Length returns the signature length in characters of its rendered regex,
// the quantity plotted in Figure 12.
func (s Signature) Length() int { return len(s.Regex()) }
