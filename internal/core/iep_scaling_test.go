package core

import (
	"testing"

	"graphpi/internal/iep"
	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
)

// This file keeps the IEP exactness check the planner ran before it read the
// per-coset counts off the pattern's order table: a walk over all n!
// relative orders of the relabeled pattern, grouped into cosets of its
// automorphisms by lexicographic rank, on restriction sets in schedule
// position space. It is the oracle computeIEPScaling is compared against.

// suffixBound is the IEP suffix NewConfig hands computeIEPScaling.
func suffixBound(c *Config) int {
	return min(c.Schedule.SuffixIndependent(c.Pattern), c.n-1, iep.MaxK)
}

// tableIEPScaling reruns computeIEPScaling on c from suffixBound, before the
// lowering may give the suffix up, and leaves c as it was.
func tableIEPScaling(c *Config) (k int, num, den int64) {
	k0, num0, den0 := c.kIEP, c.iepNum, c.iepDen
	defer func() { c.kIEP, c.iepNum, c.iepDen = k0, num0, den0 }()
	c.kIEP = suffixBound(c)
	c.computeIEPScaling()
	return c.kIEP, c.iepNum, c.iepDen
}

// refIEPScaling is computeIEPScaling by the coset walk.
func refIEPScaling(c *Config) (k int, num, den int64) {
	k = suffixBound(c)
	if k < 1 || c.n < 2 || c.n > perm.MaxTableDegree {
		return 0, 1, 1
	}
	full := c.posRestrictionSet(c.n)
	auts := c.relabeled.Automorphisms()
	for ; k >= 1; k-- {
		outer := c.posRestrictionSet(c.n - k)
		if num, den, ok := cosetConstants(c.n, auts, full, outer); ok {
			return k, num, den
		}
	}
	return 0, 1, 1
}

// posRestrictionSet collects the restrictions (in position space) whose
// later endpoint lies before cut — i.e. the checks executed by the
// outermost cut loops.
func (c *Config) posRestrictionSet(cut int) restrict.Set {
	var out restrict.Set
	for d := 0; d < cut && d < c.n; d++ {
		for _, p := range c.lowers[d] {
			out = append(out, restrict.Restriction{First: uint8(d), Second: p})
		}
		for _, p := range c.uppers[d] {
			out = append(out, restrict.Restriction{First: p, Second: uint8(d)})
		}
	}
	return out.Canonicalize()
}

// cosetConstants partitions the n! relative orders into automorphism cosets
// (σ ~ σ∘a) and returns the per-coset counts of orders satisfying the full
// and outer restriction sets, provided those counts are the same for every
// coset; ok is false otherwise.
func cosetConstants(n int, auts []perm.Perm, full, outer restrict.Set) (numFull, numOuter int64, ok bool) {
	pass := func(sigma perm.Perm, s restrict.Set) bool {
		for _, r := range s {
			if sigma[r.First] <= sigma[r.Second] {
				return false
			}
		}
		return true
	}
	visited := make([]bool, perm.Factorial(n))
	tau := make(perm.Perm, n)
	first := true
	ok = true
	perm.ForEach(n, func(sigma perm.Perm) bool {
		if visited[lehmerRank(sigma)] {
			return true
		}
		var mFull, mOuter int64
		for _, a := range auts {
			for i := range a {
				tau[i] = sigma[a[i]]
			}
			visited[lehmerRank(tau)] = true
			if pass(tau, outer) {
				mOuter++
				if pass(tau, full) {
					mFull++
				}
			}
		}
		if first {
			numFull, numOuter, first = mFull, mOuter, false
		} else if mFull != numFull || mOuter != numOuter {
			ok = false
			return false
		}
		return true
	})
	if numOuter == 0 {
		return 0, 0, false // inconsistent set: nothing would ever be counted
	}
	return numFull, numOuter, ok
}

// lehmerRank maps a permutation to its lexicographic rank in [0, n!).
func lehmerRank(p perm.Perm) int64 {
	n := len(p)
	var rank int64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * perm.Factorial(n-1-i)
	}
	return rank
}

// TestIEPScalingMatchesCosetWalk: the table-based exactness check must pick
// the same suffix and scaling as the coset walk on the snapshot's planned
// configurations and their mirrors, on every ranked configuration of the
// motifs up to 5 vertices, and on K7 and K8.
func TestIEPScalingMatchesCosetWalk(t *testing.T) {
	checked, withIEP := 0, 0
	check := func(name string, c *Config) {
		t.Helper()
		k, num, den := tableIEPScaling(c)
		wantK, wantNum, wantDen := refIEPScaling(c)
		if k != wantK || num != wantNum || den != wantDen {
			t.Errorf("%s %s %s: (kIEP, num, den) = (%d, %d, %d), coset walk (%d, %d, %d)",
				name, c.Schedule, c.Restrictions, k, num, den, wantK, wantNum, wantDen)
		}
		checked++
	}
	planned := patterntest.Suite(5)
	planned = append(planned, patterntest.Named{Name: "k8", Pat: pattern.Clique(8)})
	for _, np := range planned {
		res, err := Plan(np.Pat, snapshotStats, PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", np.Name, err)
		}
		check(np.Name, res.Best)
		m, err := res.Best.Mirror()
		if err != nil {
			t.Fatalf("%s mirror: %v", np.Name, err)
		}
		check(np.Name+" mirror", m)
	}
	for n := 3; n <= 5; n++ {
		for i, p := range pattern.AllConnected(n) {
			res, err := Plan(p, snapshotStats, PlanOptions{KeepAll: true})
			if err != nil {
				t.Fatalf("motif%d-%d: %v", n, i+1, err)
			}
			for _, cand := range res.Ranked {
				c, err := NewConfig(p, cand.Schedule, cand.Restrictions)
				if err != nil {
					t.Fatalf("motif%d-%d: %v", n, i+1, err)
				}
				check("motif", c)
				if c.KIEP() > 0 {
					withIEP++
				}
			}
		}
	}
	if withIEP == 0 {
		t.Errorf("none of %d configurations plans an IEP suffix", checked)
	}
	t.Logf("%d configurations, %d motif configurations with an IEP suffix", checked, withIEP)
}
