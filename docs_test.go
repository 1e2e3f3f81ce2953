package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinks is the markdown link checker CI's docs job runs: every
// relative link and image in the repository's *.md files must resolve
// to an existing file (and, for intra-document anchors, to a real
// heading). External http(s) links are not fetched — CI must not
// depend on the network — but nothing else gets a pass.
func TestDocsLinks(t *testing.T) {
	mds := findMarkdown(t, ".")
	if len(mds) < 5 {
		t.Fatalf("found only %d markdown files — the doc set went missing: %v", len(mds), mds)
	}
	linkRe := regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		anchors := headingAnchors(string(data))
		for _, m := range linkRe.FindAllStringSubmatch(stripCodeFences(string(data)), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					t.Errorf("%s: anchor %q does not match any heading", md, target)
				}
			default:
				path, frag, _ := strings.Cut(target, "#")
				resolved := filepath.Join(filepath.Dir(md), path)
				info, err := os.Stat(resolved)
				if err != nil {
					t.Errorf("%s: link %q -> %s does not exist", md, target, resolved)
					continue
				}
				if frag != "" && !info.IsDir() && strings.HasSuffix(path, ".md") {
					other, err := os.ReadFile(resolved)
					if err != nil {
						t.Fatal(err)
					}
					if !headingAnchors(string(other))[frag] {
						t.Errorf("%s: link %q anchor #%s not found in %s", md, target, frag, resolved)
					}
				}
			}
		}
	}
}

// TestBaselineCommandsMatchCI pins every documented venice-bench command
// that reads or writes BENCH_BASELINE.json to the -run list of CI's
// bench-regression step: a regeneration that named fewer specs than CI
// gates would silently drop their metrics from the baseline.
func TestBaselineCommandsMatchCI(t *testing.T) {
	runList := regexp.MustCompile(`-run (\S+)`)
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var gated string
	for _, line := range strings.Split(string(ci), "\n") {
		if strings.Contains(line, "venice-bench") && strings.Contains(line, "-baseline BENCH_BASELINE.json") {
			m := runList.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("ci.yml: bench-regression command has no -run list: %s", line)
			}
			gated = m[1]
		}
	}
	if gated == "" {
		t.Fatal("ci.yml: no venice-bench command gates against BENCH_BASELINE.json")
	}
	documented := 0
	for _, md := range []string{"EXPERIMENTS.md", "README.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		// Join shell line continuations so a wrapped command reads as one line.
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			if !strings.Contains(line, "venice-bench") || !strings.Contains(line, "BENCH_BASELINE.json") {
				continue
			}
			documented++
			if m := runList.FindStringSubmatch(line); m == nil || m[1] != gated {
				t.Errorf("%s: baseline command %q does not run CI's gated list %s", md, strings.TrimSpace(line), gated)
			}
		}
	}
	if documented == 0 {
		t.Fatal("no documented baseline command found in EXPERIMENTS.md or README.md")
	}
}

// TestAPIFreeze is the deprecated-surface gate CI's docs job runs: the
// legacy Borrow*/Attach* wrappers were deleted outright (their
// equivalence history lives in CHANGES.md), so the unified core.Plane
// API (Acquire / AcquireAll) is the only entry point. Below it, the
// Monitor Node's client surface is one call per verb (monitor.Alloc,
// monitor.Free) for every resource; the per-resource Request*/Free*
// calls and their option structs are gone too, and so is the
// per-request placement-policy override (core.WithPolicy): the MN's
// configured Policy is the one placement knob. core.WithExclusive is
// gone as well: it reserved nothing, and the exclusive mailbox path is
// the donor's setting (accel.Service.SetExclusive). The serving
// family has one entry point, serving.Run, whose Config.Workload picks
// the scenario: the churn and tenancy entry points and their config
// types are gone. Wrappers only tests called are gone too: the
// experiments' per-figure and smoke runners (run a spec through
// harness.RunID or its spec builder), transport's Endpoint.Call
// (CallTimeout with a zero timeout), and sim's Proc.AwaitAll,
// Proc.Yield, Queue.TryPop, Semaphore.TryAcquire and Params.CycleTime
// (Await each completion; Sleep(0)). RNG.Shuffle and
// Semaphore.Available are gone as well but not listed: their names
// would match unrelated calls. Mechanisms only tests reached are gone
// too: core's MN-less lease kinds DirectMemory and DirectSwap with
// their WithDonor option (every lease comes from a grant; an experiment
// that bypasses the MN wires its CRMA window itself, as fig14's
// donor-impact hammer does), and chaos's MTTF/MTTR fault streams
// NodeFault, LinkFault and BeatFault with the heartbeat-loss ops BeatOff
// and BeatOn (a fault plan is a list of actions). Placement is one
// table: the types behind monitor's old Policy interface,
// DistanceFirst, MostIdle, TrafficAware, Spread and CoolestPath, with
// their Choose methods, and the self-registering RegisterPolicy are
// gone (a policy is a row of the policies table, resolved by
// PolicyByName), as are the View's test-only PathLinks and LinkUtil and
// the sharded plane's rack telemetry MaxUtil, which nothing switched
// on. The device path's raw packets are gone: transport's SendRaw and
// Endpoint.Handle (a one-way notice is Endpoint.Notify, and QPair
// messages ride their channel's own wires; Handle is not listed, since
// its name would match sim.Handle), and accel's Service.Submit, whose
// one caller now fills a pooled task. sim's string-keyed Scoreboard is
// gone: the monitor plane's counters are declared once, in
// monitor.Counters, which obs.Collector.MirrorScoreboard mirrors (the
// word gate does not match that name). A constant or type used as a
// value is neither a call nor a literal, so those names fail the gate
// wherever they appear as a word.
// The gate rejects both a surviving use and a reintroduced definition —
// deleting dead code only sticks if nothing can quietly grow it back.
func TestAPIFreeze(t *testing.T) {
	const names = `BorrowMemory|BorrowMemoryScoped|BorrowSwap|AttachAccelerator|AttachNIC|AttachMemoryDirect|AttachSwapDirect|` +
		`RequestMemory|RequestMemoryScoped|RequestMemoryOpts|RequestDevice|RequestDeviceOpts|MemReqOpts|DevReqOpts|FreeMemory|FreeDevice|` +
		`WithPolicy|WithExclusive|RunChurn|RunTenancy|ChurnConfig|TenancyConfig|` +
		`Fig3|Fig5|Fig6|Fig6Of|Fig14|Fig15|Fig15Of|Fig16a|Fig16b|Fig17|Fig18|Validation|` +
		`AblationMSHR|AblationMSHROf|AblationReadahead|AblationWindow|AblationGranularity|` +
		`ServingSmoke|ChurnSmoke|ScaleSmoke|MigrateSmoke|Call|AwaitAll|Yield|TryPop|TryAcquire|CycleTime|` +
		`Choose|Spread|PathLinks|LinkUtil|SendRaw|Submit`
	deprecated := regexp.MustCompile(`\.(` + names + `)[({]`)
	redefined := regexp.MustCompile(`^(func (\([^)]*\) )?|type )(` + names + `)\b`)
	named := regexp.MustCompile(`\b(DirectMemory|DirectSwap|WithDonor|NodeFault|LinkFault|BeatFault|BeatOff|BeatOn|` +
		`RegisterPolicy|DistanceFirst|MostIdle|TrafficAware|CoolestPath|MaxUtil|Scoreboard)\b`)
	for _, dir := range []string{"examples", "cmd", "internal/core", "internal/monitor", "internal/serving", "internal/experiments",
		"internal/sim", "internal/transport", "internal/chaos", "internal/obs", "internal/accel", "internal/vnic", "bench_test.go"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(data), "\n") {
				if m := deprecated.FindString(line); m != "" {
					t.Errorf("%s:%d: uses deleted name %q — see TestAPIFreeze's doc for what replaces it", path, i+1, strings.TrimRight(strings.TrimPrefix(m, "."), "({"))
				}
				if redefined.MatchString(line) {
					t.Errorf("%s:%d: reintroduces a deleted entry point: %s", path, i+1, strings.TrimSpace(line))
				}
				if m := named.FindString(line); m != "" {
					t.Errorf("%s:%d: names deleted %q — see TestAPIFreeze's doc for what replaces it", path, i+1, m)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCitedTestsExist keeps test citations honest: every Test…/Benchmark…/Fuzz…
// name that CI runs or the docs cite must be defined in some _test.go.
// `go test -run` with a name that matches nothing prints "[no tests to
// run]" and passes, so a renamed test would silently drop out of CI's
// race steps, or of the verification steps the repository's verify
// skill lists. ROADMAP.md is skipped: it names planned benchmarks.
func TestCitedTestsExist(t *testing.T) {
	defined := map[string]bool{}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	citeRe := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{
		filepath.Join(".github", "workflows", "ci.yml"), "README.md", "ARCHITECTURE.md", "EXPERIMENTS.md",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range citeRe.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d: cites %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
}

// findMarkdown walks the tree for *.md files, skipping VCS internals.
func findMarkdown(t *testing.T, root string) []string {
	t.Helper()
	var mds []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mds
}

// headingAnchors derives GitHub-style anchor slugs from markdown
// headings: lowercase, spaces to dashes, punctuation dropped.
func headingAnchors(doc string) map[string]bool {
	anchors := make(map[string]bool)
	slugRe := regexp.MustCompile(`[^a-z0-9 _-]`)
	for _, line := range strings.Split(stripCodeFences(doc), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slug := slugRe.ReplaceAllString(strings.ToLower(text), "")
		slug = strings.ReplaceAll(slug, " ", "-")
		if anchors[slug] {
			// GitHub de-duplicates repeated headings with -1, -2, …
			for i := 1; ; i++ {
				dedup := fmt.Sprintf("%s-%d", slug, i)
				if !anchors[dedup] {
					slug = dedup
					break
				}
			}
		}
		anchors[slug] = true
	}
	return anchors
}

// stripCodeFences blanks ``` blocks so example snippets cannot
// register false links or headings.
func stripCodeFences(doc string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			out = append(out, "")
			continue
		}
		if fenced {
			out = append(out, "")
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
