package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of 2,4,4,4,5,5,7,9 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of singleton should be 0")
	}
	if Variance(nil) != 0 {
		t.Fatal("Variance of empty should be 0")
	}
}

func TestStdDevConstant(t *testing.T) {
	if got := StdDev([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("StdDev of constant = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMedianOddEven(t *testing.T) {
	m, err := Median([]float64{5, 1, 3})
	if err != nil || m != 3 {
		t.Fatalf("Median odd = %v, %v", m, err)
	}
	m, err = Median([]float64{4, 1, 3, 2})
	if err != nil || m != 2.5 {
		t.Fatalf("Median even = %v, %v", m, err)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 10 || q1 != 40 {
		t.Fatalf("Quantile edges = %v, %v", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile out of range should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("Quantile empty should return ErrEmpty")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", z)
	}
}

func TestPermutationTestDetectsLargeDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := []float64{10, 11, 12, 10.5, 11.5, 10.2, 11.8, 12.1}
	b := []float64{0, 1, 2, 0.5, 1.5, 0.2, 1.8, 2.1}
	p, err := PermutationTest(a, b, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Fatalf("p = %v, want < 0.01 for clearly separated samples", p)
	}
}

func TestPermutationTestNullIsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{1.1, 2.1, 2.9, 4.1, 4.9, 6.1}
	p, err := PermutationTest(a, b, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.2 {
		t.Fatalf("p = %v, want large for identical-ish samples", p)
	}
}

func TestPermutationTestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := PermutationTest(nil, []float64{1}, 10, rng); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if _, err := PermutationTest([]float64{1}, []float64{1}, 0, rng); err == nil {
		t.Fatal("iters=0 should error")
	}
}

func TestPairedPermutationTest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	first := []float64{60, 55, 65, 58, 62, 57, 61, 59}
	second := []float64{80, 78, 82, 79, 81, 77, 83, 80}
	p, err := PairedPermutationTest(second, first, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.02 {
		t.Fatalf("paired p = %v, want small for consistent improvement", p)
	}
	if _, err := PairedPermutationTest([]float64{1, 2}, []float64{1}, 10, rng); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestWelchT(t *testing.T) {
	a := []float64{10, 12, 14, 16}
	b := []float64{1, 2, 3, 4}
	tt, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tt <= 0 {
		t.Fatalf("t = %v, want positive when mean(a) > mean(b)", tt)
	}
	if _, err := WelchT([]float64{1}, b); err == nil {
		t.Fatal("small sample should error")
	}
	if _, err := WelchT([]float64{1, 1}, []float64{1, 1}); err == nil {
		t.Fatal("zero variance should error")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 10 {
		t.Fatalf("Total = %d, want 10", h.Total())
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Fatalf("bin %d count = %d, want 2 (%v)", i, c, h.Counts)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Fatalf("all-equal values should land in bin 0: %v", h.Counts)
	}
	if _, err := NewHistogram(nil, 3); err != ErrEmpty {
		t.Fatal("empty should return ErrEmpty")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Fatal("nbins=0 should error")
	}
}

// Property: mean is within [min, max]; stddev >= 0; median within [min, max].
func TestSummaryPropertiesQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6 &&
			s.StdDev >= 0 && s.Median >= s.Min && s.Median <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: permutation test p-value is in (0, 1].
func TestPermutationPBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(a8, b8 [4]float64) bool {
		a := a8[:]
		b := b8[:]
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 0
			}
		}
		p, err := PermutationTest(a, b, 50, rng)
		return err == nil && p > 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v, err := Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone: q=%v v=%v prev=%v xs=%v", q, v, prev, xs)
			}
			prev = v
		}
	}
	sort.Float64s(nil) // keep sort imported even if refactored
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("TABLE II. PERFORMANCES ON TEST 1", "Group", "Shared Memory", "Message Passing", "Overall")
	tb.AddRow("S (9 students)", F(56.67), F(81.72), F(138.39))
	tb.AddRow("D (7 students)", F(76.14), F(65.93), F(142.07))
	out := tb.String()
	for _, want := range []string{"TABLE II", "Group", "56.67", "81.72", "142.07"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableSpanningRow(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.AddRow("1", "2")
	tb.AddRowf("note: %d students", 6)
	out := tb.String()
	if !strings.Contains(out, "note: 6 students") {
		t.Fatalf("missing spanning row:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.005) != "1.00" && F(1.005) != "1.01" {
		t.Fatalf("F(1.005) = %q", F(1.005))
	}
	if I(42) != "42" {
		t.Fatalf("I = %q", I(42))
	}
}

func TestTableNoTitleNoHeaders(t *testing.T) {
	tb := &Table{}
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "x | y") {
		t.Fatalf("bare table render: %q", out)
	}
}
