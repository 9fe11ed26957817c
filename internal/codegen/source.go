package codegen

import (
	"fmt"
	"strings"

	"graphpi/internal/schedule"
)

// GenerateSource renders the spec as a complete standalone Go main package —
// the paper's emit-and-inspect artifact. It consumes the same lowered
// Program as the interpreter, so the emitted nest and the engine's loop walk
// have the same structure by construction: a hoisted intersection trims its
// operands to the bounds the lowering moved into it and abandons the
// iteration when it comes back empty, the restrictions left
// on a loop become break/continue guards, injectivity checks shrink to the
// lowering's residual duplicate list, and a window-free counting leaf
// collapses to a length add.
//
// The emitted program is self-contained (stdlib only): it loads an
// edge-list graph from argv[1], runs the hard-coded loop nest, and prints
// the embedding count. Tests compile and run it with the host toolchain and
// compare against the interpreted engine.
func GenerateSource(spec Spec) (string, error) {
	spec.KIEP = 0 // the standalone program enumerates the full nest
	prog, err := Lower(spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, header, spec.Pattern, spec.Schedule, spec.Restrictions)

	b.WriteString("func countEmbeddings(g *csr) int64 {\n")
	b.WriteString("\tvar count int64\n")
	if prog.NumBufs > 0 {
		fmt.Fprintf(&b, "\tbufs := make([][]uint32, %d)\n", prog.NumBufs)
		b.WriteString("\tfor i := range bufs {\n\t\tbufs[i] = make([]uint32, 0, g.maxDeg())\n\t}\n")
	}

	indent := "\t"
	open := 0
	for d := 0; d < prog.N; d++ {
		lv := prog.Levels[d]
		v := fmt.Sprintf("v%d", d)
		src := ""
		switch lv.Cand.Kind {
		case schedule.CandNeighborhood:
			src = fmt.Sprintf("g.neighbors(v%d)", lv.Cand.Parent)
		case schedule.CandBuffer:
			src = fmt.Sprintf("bufs[%d]", lv.Cand.Buf)
		}
		if lv.IsLeaf && src != "" &&
			len(lv.Uppers) == 0 && len(lv.Lowers) == 0 && len(lv.Dup) == 0 && len(lv.Steps) == 0 {
			// Monomorphized counting leaf: nothing filters the candidates.
			fmt.Fprintf(&b, "%scount += int64(len(%s))\n", indent, src)
			break
		}
		if src != "" {
			fmt.Fprintf(&b, "%sfor _, %s := range %s {\n", indent, v, src)
		} else {
			fmt.Fprintf(&b, "%sfor %s := uint32(0); %s < uint32(g.numVertices()); %s++ {\n",
				indent, v, v, v)
		}
		open++
		inner := indent + "\t"
		// Restriction window: uppers break (candidates ascend), lowers skip.
		for _, p := range lv.Uppers {
			fmt.Fprintf(&b, "%sif %s >= v%d {\n%s\tbreak // id(v%d) > id(v%d)\n%s}\n",
				inner, v, p, inner, p, d, inner)
		}
		for _, p := range lv.Lowers {
			fmt.Fprintf(&b, "%sif %s <= v%d {\n%s\tcontinue // id(v%d) > id(v%d)\n%s}\n",
				inner, v, p, inner, d, p, inner)
		}
		// Injectivity: only the lowering's residual duplicate checks.
		for _, p := range lv.Dup {
			fmt.Fprintf(&b, "%sif %s == v%d {\n%s\tcontinue\n%s}\n", inner, v, p, inner, inner)
		}
		// Hoisted intersections (the paper's tmpXY temporaries), each
		// bounded by the step's window and cut when empty.
		for _, st := range lv.Steps {
			left := fmt.Sprintf("g.neighbors(v%d)", st.LeftParent)
			if st.LeftBuf >= 0 {
				left = fmt.Sprintf("bufs[%d]", st.LeftBuf)
			}
			right := fmt.Sprintf("g.neighbors(%s)", v)
			if len(st.Lowers)+len(st.Uppers) > 0 {
				lo, hi := boundExpr(st.Lowers, "max", "+1", "0"), boundExpr(st.Uppers, "min", "", "^uint32(0)")
				left = fmt.Sprintf("window(%s, %s, %s)", left, lo, hi)
				right = fmt.Sprintf("window(%s, %s, %s)", right, lo, hi)
			}
			if st.Memo != nil {
				ctx := make([]string, len(st.Memo))
				for i, p := range st.Memo {
					ctx[i] = fmt.Sprintf("v%d", p)
				}
				fmt.Fprintf(&b, "%s// loop-invariant: a function of %s under fixed %s; the engine memoises it\n",
					inner, v, strings.Join(ctx, ", "))
			}
			fmt.Fprintf(&b, "%sbufs[%d] = intersect(bufs[%d][:0], %s, %s)\n",
				inner, st.Out, st.Out, left, right)
			fmt.Fprintf(&b, "%sif len(bufs[%d]) == 0 {\n%s\tcontinue // empty set: nothing below can match\n%s}\n",
				inner, st.Out, inner, inner)
		}
		if lv.IsLeaf {
			fmt.Fprintf(&b, "%scount++\n", inner)
		}
		indent = inner
	}
	for ; open > 0; open-- {
		indent = indent[:len(indent)-1]
		fmt.Fprintf(&b, "%s}\n", indent)
	}
	b.WriteString("\treturn count\n}\n")
	b.WriteString(runtimeSupport)
	return b.String(), nil
}

// boundExpr renders one end of a step's window over the bound vertices at
// positions ps: fold(v_p<suffix>, ...) , or none when ps is empty.
func boundExpr(ps []uint8, fold, suffix, none string) string {
	if len(ps) == 0 {
		return none
	}
	terms := make([]string, len(ps))
	for i, p := range ps {
		terms[i] = fmt.Sprintf("v%d%s", p, suffix)
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return fold + "(" + strings.Join(terms, ", ") + ")"
}

const header = `// Code generated by graphpi internal/codegen; DO NOT EDIT.
//
// Pattern:      %s
// Schedule:     %s
// Restrictions: %s
//
// Usage: <binary> <graph-file>   (edge list "u v" per line, # comments)
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

`

// runtimeSupport is the fixed tail of every generated program: a minimal
// CSR representation, the merge intersection, the window trim, and main().
const runtimeSupport = `
type csr struct {
	offsets []int64
	adj     []uint32
}

func (g *csr) numVertices() int { return len(g.offsets) - 1 }

func (g *csr) neighbors(v uint32) []uint32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

func (g *csr) maxDeg() int {
	m := 0
	for v := 0; v < g.numVertices(); v++ {
		if d := int(g.offsets[v+1] - g.offsets[v]); d > m {
			m = d
		}
	}
	return m
}

func intersect(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// window returns the elements of the sorted set a in [lo, hi).
func window(a []uint32, lo, hi uint32) []uint32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= lo })
	j := sort.Search(len(a), func(i int) bool { return a[i] >= hi })
	if i > j {
		return nil
	}
	return a[i:j]
}

func loadGraph(path string) (*csr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	type edge struct{ u, v uint32 }
	var edges []edge
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bad line %q", line)
		}
		u64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, err
		}
		v64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, err
		}
		u, v := uint32(u64), uint32(v64)
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v})
		if int(u)+1 > n {
			n = int(u) + 1
		}
		if int(v)+1 > n {
			n = int(v) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	g := &csr{offsets: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	g.adj = make([]uint32, g.offsets[n])
	fill := make([]int64, n)
	copy(fill, g.offsets[:n])
	for _, e := range edges {
		g.adj[fill[e.u]] = e.v
		fill[e.u]++
		g.adj[fill[e.v]] = e.u
		fill[e.v]++
	}
	for v := 0; v < n; v++ {
		nb := g.adj[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		// Dedupe parallel edges.
		w := 0
		for i, x := range nb {
			if i == 0 || x != nb[w-1] {
				nb[w] = x
				w++
			}
		}
		if w != len(nb) {
			return nil, fmt.Errorf("duplicate edges not supported in generated loader")
		}
	}
	return g, nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: <binary> <edge-list-file>")
		os.Exit(2)
	}
	g, err := loadGraph(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Println(countEmbeddings(g))
}
`
