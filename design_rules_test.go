package encag

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDesignRules checks the module's design rules. Each is a predicate
// over the parsed tree (benchmark/ excluded) that must hold on the tree,
// fire on the rule's violating fixture and not on its compliant one. A
// rule lives here and nowhere else.
func TestDesignRules(t *testing.T) {
	src := fx{}
	err := filepath.Walk(".", func(p string, fi os.FileInfo, err error) error {
		if err == nil && fi.IsDir() && p != "." && strings.HasPrefix(fi.Name(), ".") {
			return filepath.SkipDir
		}
		if err == nil && !fi.IsDir() {
			var text []byte
			if strings.HasSuffix(p, ".go") {
				text, err = os.ReadFile(p)
			}
			src[filepath.ToSlash(p)] = string(text)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := src.parse(t)
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tree) {
				t.Error(v)
			}
			if len(r.check(r.bad.parse(t))) == 0 {
				t.Error("the violating fixture does not fire")
			}
			if v := r.check(r.good.parse(t)); len(v) > 0 {
				t.Errorf("the compliant fixture fires: %v", v)
			}
		})
	}
}

type designRule struct {
	name      string
	check     func(tree []*srcFile) (violations []string)
	bad, good fx
}

// fx is source by path: the tree, or a rule's fixture.
type fx map[string]string

// srcFile is one file of the tree; only Go files are read and parsed.
type srcFile struct {
	path string // slash-separated, from the module root
	test bool
	text string
	ast  *ast.File
	imp  map[string]string // import path by the name the file gives it
}

var designFset = token.NewFileSet()

func (src fx) parse(t *testing.T) (tree []*srcFile) {
	for path, text := range src {
		f := &srcFile{path: path, test: strings.HasSuffix(path, "_test.go"), text: text, imp: map[string]string{}}
		tree = append(tree, f)
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		var err error
		if f.ast, err = parser.ParseFile(designFset, path, text, parser.ParseComments); err != nil {
			t.Fatal(err)
		}
		for _, is := range f.ast.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			f.imp[name] = p
		}
	}
	return tree
}

// in reports whether f is a Go file outside benchmark/ that scope holds.
func (f *srcFile) in(scope func(*srcFile) bool) bool {
	return f.ast != nil && !strings.HasPrefix(f.path, "benchmark/") && scope(f)
}

// Scopes, by path prefix: all takes test files too, under and outside do not.
func all(prefixes ...string) func(*srcFile) bool {
	return func(f *srcFile) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.path, p) })
	}
}
func under(prefixes ...string) func(*srcFile) bool {
	return func(f *srcFile) bool { return !f.test && all(prefixes...)(f) }
}
func outside(prefixes ...string) func(*srcFile) bool {
	return func(f *srcFile) bool { return !f.test && !all(prefixes...)(f) }
}

// walk reports each node of the files in scope that visit (nil-safe) flags.
func walk(tree []*srcFile, scope func(*srcFile) bool, visit func(*srcFile, ast.Node) string) (out []string) {
	for _, f := range tree {
		if f.in(scope) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if msg := visit(f, n); msg != "" {
					out = append(out, fmt.Sprintf("%s: %s", designFset.Position(n.Pos()), msg))
				}
				return true
			})
		}
	}
	return out
}

// qualified is "import/path.Name" for a selector on an imported package, or "".
func (f *srcFile) qualified(n ast.Node) string {
	if s, ok := n.(*ast.SelectorExpr); ok {
		if x, ok := s.X.(*ast.Ident); ok && f.imp[x.Name] != "" {
			return f.imp[x.Name] + "." + s.Sel.Name
		}
	}
	return ""
}

// forbid: no file in scope names names; fixtures alias the first, at bad and good.
func forbid(name string, scope func(*srcFile) bool, bad, good string, names ...string) designRule {
	check := func(tree []*srcFile) []string {
		return walk(tree, scope, func(f *srcFile, n ast.Node) string {
			if q := f.qualified(n); q != "" && slices.Contains(names, q) {
				return q
			}
			return ""
		})
	}
	dot := strings.LastIndex(names[0], ".")
	src := fmt.Sprintf("package p; import x %q; func _() { x%s() }", names[0][:dot], names[0][dot:])
	return designRule{name, check, fx{bad: src}, fx{good: src}}
}

const mod = "encag/internal/"

var designRules = []designRule{
	// Ranks outlive operations: rank slots start P workers on their first
	// op, the mesh its send loops, the link its accept and serve loops, and
	// Close stops them. Collective and Start start none (an op ends on its
	// last rank's worker); large payload fills and checks use the crypto pool.
	{"GoStatements", checkGo,
		fx{"internal/cluster/session.go": "package cluster; func (s *S) f(o *Op) { go s.end(o) }"},
		fx{"internal/cluster/slot.go": "package cluster; func (s *rankSlot) f() { go s.worker() }"}},
	// One algorithm table: alg.go builds it once (the paper's eight in Table
	// II order), and ParseAlg, lookup, autoCandidate, tune and bench read it.
	forbid("OneAlgorithmTable", outside("alg.go"), "session.go", "alg.go", mod+"encrypted.Get"),
	// Synthetic payloads at copy speed: the real engines fill with
	// block.PatternFill; only Session.Sim keeps the per-byte reference.
	forbid("PatternFillReference", outside("internal/cluster/session.go"), "internal/cluster/op.go", "internal/cluster/op_test.go", mod+"block.FillPattern"),
	// One in-flight window, the session's rank-slot pool. internal/sched
	// keeps a cut-down Scheduler only for the benchmark's sched.start_ns.
	forbid("OneInFlightWindow", outside("internal/sched/"), "session.go", "internal/sched/sched.go", mod+"sched.New", mod+"sched.Scheduler", mod+"sched.Completed"),
	// An op allocates for its bytes, not its bookkeeping: inputs are views.
	forbid("OpBuildsNoPlainMessage", all("internal/cluster/op.go"), "internal/cluster/op.go", "internal/cluster/proc.go", mod+"block.NewPlain"),
	// Algorithms take group lists from the Proc (built once per session) and
	// return p.Assemble(...), whose chunks live in storage the op owns.
	forbid("AlgorithmsUseTheProc", under("internal/encrypted/"), "internal/encrypted/hs.go", "internal/encrypted/hs_test.go", mod+"collective.World", mod+"block.AssembleByOrigin"),
	// Member-indexed message lists come from the rank's arena (p.Messages).
	{"MessageListsFromTheArena", checkMessageMake,
		fx{"internal/collective/ring.go": `package collective; import b "encag/internal/block"; var _ = make([]b.Message, 4)`},
		fx{"internal/collective/ring.go": `package collective; import "encag/internal/block"; var _ = make([]block.Chunk, 4)`}},
	// Nothing outlives its op, one way to wait: a rank blocks only in one
	// select (opRuntime.park); no run bound, no waiter, no condition variable.
	forbid("NoAfterFunc", under("internal/cluster/"), "internal/cluster/op.go", "internal/cluster/op_test.go", "time.AfterFunc", "context.AfterFunc"),
	forbid("NoCondInOpOrScheduler", all("internal/cluster/op.go", "internal/sched/sched.go"), "internal/sched/sched.go", "internal/sched/queue.go", "sync.Cond"),
	// A rank slot makes its receive timers once and re-arms them with Reset.
	forbid("NoTimerPerOp", all("internal/cluster/op.go"), "internal/cluster/op.go", "internal/cluster/slot.go", "time.NewTimer"),
	// One command: cmd/encag and its subcommands, no second binary.
	{"OneCommand", checkOneCommand, fx{"cmd/mon/main.go": "package main"}, fx{"cmd/encag/main.go": "package main"}},
	{"Tombstones", checkTombstones,
		fx{"internal/cluster/op_test.go": "package cluster; func f() { x.materializeMessage() }"},
		fx{"internal/cluster/op_test.go": "package cluster; var realTimeout = 1"}},
	{"ExportsHaveCallers", checkExports,
		fx{"internal/sim/sim.go": "package sim; func (e *Env) RunUntil(d float64) {}"},
		fx{"internal/sim/sim.go": "package sim; func (e *Env) Run() {}", "session.go": "package encag; func f(e *sim.Env) { e.Run() }"}},
}

// goAllowed lists each non-test file's go statements by callee.
var goAllowed = map[string][]string{
	"internal/cluster/link.go": {"l.accept", "l.serveConn"},
	"internal/cluster/mesh.go": {"t.sendLoop"},
	"internal/cluster/slot.go": {"s.worker"},
	"internal/seal/pool.go":    {"p.work"},
	"internal/serve/http.go":   {"s.srv.Serve"},
	"internal/serve/serve.go":  {"m.janitor"},
	"internal/sched/sched.go":  {"(func() literal)"},
	"internal/sim/sim.go":      {"(func() literal)"},
	"cmd/encag/load.go":        {"(func() literal)"},
}

func checkGo(tree []*srcFile) []string {
	return walk(tree, under(""), func(f *srcFile, n ast.Node) string {
		if g, ok := n.(*ast.GoStmt); ok && !slices.Contains(goAllowed[f.path], types.ExprString(g.Call.Fun)) {
			return "go " + types.ExprString(g.Call.Fun)
		}
		return ""
	})
}

func checkMessageMake(tree []*srcFile) []string {
	return walk(tree, under("internal/collective/"), func(f *srcFile, n ast.Node) string {
		if c, ok := n.(*ast.CallExpr); ok && types.ExprString(c.Fun) == "make" && len(c.Args) > 0 {
			if a, ok := c.Args[0].(*ast.ArrayType); ok && a.Len == nil && f.qualified(a.Elt) == mod+"block.Message" {
				return "make([]block.Message, …)"
			}
		}
		return ""
	})
}

func checkOneCommand(tree []*srcFile) []string {
	var cmds []string
	for _, f := range tree {
		if dir, ok := strings.CutPrefix(f.path, "cmd/"); ok {
			cmds = append(cmds, strings.Split(dir, "/")[0])
		}
	}
	slices.Sort(cmds)
	if cmds = slices.Compact(cmds); !slices.Equal(cmds, []string{"encag"}) {
		return cmds
	}
	return nil
}

// tombstones are retired names and shapes, matched as text, so a comment
// or a string still fires (a test that needs one spells it in halves).
var tombstones = []struct {
	scope func(*srcFile) bool
	re    string
}{
	// One entry point (OpenSession): no deprecated API may grow back.
	{all(""), `Deprecated:`},
	// One pipelining mechanism, WithPipelining(on), and no stream has a blob:
	// each segment is sealed into one buffer and opened where it lands.
	{all(""), `ring-pipe|RingPipelined|WithSegmentWindow|PipelineConfig|openWindow|DefaultSegmentWindow|nextEnvSeq|arrSeq|segment_window|pending_opens|StreamFromBlob|CheckSegmented|MsgChunks|flagInline|msgRecv|chunkSend|encag_pipeline_msg_streams_total|encag_pipeline_inline_chunks_total|materializeMessage|Stream \*seal\.SealStream|\.Stream\.Blob\(|OpenStream\) Blob\(`},
	// WithCryptoPool picks the crypto pool; one segmented-header parser.
	{all(""), `CryptoWorkers|SetWorkers|parseSegHeader`},
	// One fault verdict per frame (Injector.SendFrame), no conn wrapper.
	{all(""), `WrapSendProvider|StartFrame|injProv|fault\.Conn\b`},
	// An op's only clocks are each receive's deadline and its context.
	{under("internal/cluster/"), `realTimeout`},
	// WaitAll selects on the slot pool's drained channel: no handle list.
	{all(""), `handles +\[\]\*Handle`},
	// One link, two pair kinds: same-node pairs in memory, sockets between nodes.
	{all(""), `chanLink|heldLink|type link interface`},
	// Nonces are unique by construction (per-key field + seal counter).
	{all(""), `EnableNonceAudit|DuplicateNonceSeen|auditOn|nonceSource|nonceBatch`},
	// No test scaffolding on the message path; the adversary is a fault plan.
	{all(""), `SecurityAudit|type Adversary|Adversary:|streamBlob|opInbox|type envelope`},
	// No per-block bookkeeping; a socket reader decodes into its op's arena.
	{all("internal/"), `Blocks: \[\]Block\{b\}|sort\.SliceStable|map\[int\]block\.(Chunk|Message)|Sprintf\("hs/`},
	{all(""), `Alloc +func\(n int\)|dec\.Alloc|reg\.get\(`},
	// One live surface: encag serve is the only HTTP exposition.
	{all(""), `WithDebugServer|DebugAddr|startDebugServer|debugServer|cmdMon`},
	// One cell timer: every real-engine cell goes through bench.TimeCell.
	{all(""), `osuStats|func osuCell|func bestOf`},
	// One record per fact: a total sums its per-pair series, one seal.Tally.
	{all(""), `framesSentTotal|framesRecvTotal|bytesSentTotal|bytesRecvTotal|sealedBase|openedBase|map\[\*seal\.Sealer\]int|WindowInFlight|encag_sched_window_inflight|MetricsSummary|PipelineSegmentsRecv`},
}

func checkTombstones(tree []*srcFile) (out []string) {
	for _, tb := range tombstones {
		// One regexp per literal-prefixed alternative: ~50× faster than one.
		alts, _ := syntax.Parse(tb.re, syntax.Perl)
		if alts.Op != syntax.OpAlternate {
			alts = &syntax.Regexp{Sub: []*syntax.Regexp{alts}}
		}
		for _, alt := range alts.Sub {
			re := regexp.MustCompile(alt.String())
			for _, f := range tree {
				if !f.in(tb.scope) || f.path == "design_rules_test.go" {
					continue
				}
				for _, m := range re.FindAllStringIndex(f.text, -1) {
					out = append(out, fmt.Sprintf("%s:%d: %s", f.path, 1+strings.Count(f.text[:m[0]], "\n"), f.text[m[0]:m[1]]))
				}
			}
		}
	}
	return out
}

// stdMethods are the methods a standard interface calls implicitly.
var stdMethods = []string{"Error", "Unwrap", "String", "Format", "Len", "Less", "Swap", "Push", "Pop", "Read", "Write", "Close", "ServeHTTP", "MarshalJSON", "UnmarshalJSON"}

// testOnly names the exports only tests call that stay in the product,
// each with why. It may only shrink.
var testOnly = map[string]string{
	"cluster.RunOnce": shared, "cluster.SimOnce": shared, "cluster.ValidateGather": shared,
	"block.Concat": shared, "block.NewSim": shared, "tune.BucketMin": shared, "seal.Pool.Closed": shared,
	"metrics.Registry.WritePrometheus": public, "metrics.Registry.ExpvarFunc": public, "metrics.Gauge.Dec": public,
}

const shared, public = "the tests of several packages share it", "public through encag.MetricsRegistry"

// checkExports: an export of non-test internal/ is named in a non-test file
// (benchmark/ too) away from its declaration: test-only code is in tests.
func checkExports(tree []*srcFile) []string {
	named := map[string]int{}
	for _, f := range tree {
		if f.ast != nil && !f.test {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name]++
				} else if d, ok := n.(*ast.FuncDecl); ok {
					named[d.Name.Name]--
				}
				return true
			})
		}
	}
	return walk(tree, under("internal/"), func(f *srcFile, n ast.Node) string {
		d, ok := n.(*ast.FuncDecl)
		if !ok || !d.Name.IsExported() || named[d.Name.Name] > 0 || d.Recv != nil && slices.Contains(stdMethods, d.Name.Name) {
			return ""
		}
		key := d.Name.Name
		if d.Recv != nil {
			key = strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*") + "." + key
		}
		if key = f.ast.Name.Name + "." + key; testOnly[key] != "" {
			return ""
		}
		return key + " has no caller outside tests"
	})
}
