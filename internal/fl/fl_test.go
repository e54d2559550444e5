package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func TestWeightedAverageKnown(t *testing.T) {
	models := [][]float64{{1, 2}, {3, 4}}
	avg, err := WeightedAverage(models, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 3.5}
	for i := range want {
		if math.Abs(avg[i]-want[i]) > 1e-12 {
			t.Fatalf("avg = %v, want %v", avg, want)
		}
	}
}

func TestWeightedAverageErrors(t *testing.T) {
	if _, err := WeightedAverage(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want count-mismatch error")
	}
	if _, err := WeightedAverage([][]float64{{1}, {1, 2}}, []float64{1, 1}); err == nil {
		t.Fatal("want dim-mismatch error")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{-1}); err == nil {
		t.Fatal("want negative-count error")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("want zero-total error")
	}
}

// TestWeightedAverageMatchesSerialLoop pins the blocked, fanned-out
// kernel to the plain loop it replaced, bit for bit at every pool
// budget: zero fractions skipped, each coordinate accumulated from +0 in
// model order (so an all −0 column averages to +0).
func TestWeightedAverageMatchesSerialLoop(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	rng := rand.New(rand.NewSource(3))
	dim := 2*tensor.ParallelVecFloor + tensor.VecBlock/2 + 1
	models := make([][]float64, 4)
	for i := range models {
		models[i] = make([]float64, dim)
		for j := range models[i] {
			models[i][j] = rng.NormFloat64()
		}
		models[i][0] = math.Copysign(0, -1)
	}
	models[1][1], models[2][2] = math.Inf(1), math.NaN()
	counts := []float64{3, 0, 7, 1}
	want := make([]float64, dim)
	for i, m := range models {
		f := counts[i] / 11
		if f == 0 {
			continue
		}
		for j, v := range m {
			want[j] += f * v
		}
	}
	for _, budget := range []int{1, 2, 3} {
		tensor.SetParallelism(budget)
		got, err := WeightedAverage(models, counts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("budget %d: coord %d = %v, want %v", budget, j, got[j], want[j])
			}
		}
	}
}

func TestUniformAverageMatchesMean(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound magnitudes so the reference (a+b+c)/3 cannot overflow.
		bound := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a, b, c = bound(a), bound(b), bound(c)
		avg, err := UniformAverage([][]float64{{a}, {b}, {c}})
		if err != nil {
			return false
		}
		return math.Abs(avg[0]-(a+b+c)/3) < 1e-9*(1+math.Abs(a)+math.Abs(b)+math.Abs(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FedAvg with equal counts must equal SAC's uniform average: the paper's
// claim that the two layers compose without changing the aggregate.
func TestWeightedEqualsUniformForEqualCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := make([][]float64, 4)
	counts := make([]float64, 4)
	for i := range models {
		models[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		counts[i] = 7
	}
	w, err := WeightedAverage(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := UniformAverage(models)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-u[i]) > 1e-12 {
			t.Fatal("weighted avg with equal counts must equal uniform avg")
		}
	}
}

func newTinyClient(t *testing.T, id int, data *dataset.Dataset, seed int64) *Client {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := nn.MLP(data.PixelDim(), []int{16}, data.Classes, rng)
	opt := optim.NewAdam(1e-3)
	return NewClient(id, model, opt, data,
		TrainConfig{Epochs: 1, BatchSize: 10, Flat: true}, rng)
}

func TestClientTrainRoundReducesLoss(t *testing.T) {
	train, test, err := dataset.Generate(dataset.Tiny(3, 120, 60, 42))
	if err != nil {
		t.Fatal(err)
	}
	c := newTinyClient(t, 0, train, 1)
	_, loss0, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if _, err := c.TrainRound(); err != nil {
			t.Fatal(err)
		}
	}
	acc, loss1, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if loss1 >= loss0 {
		t.Fatalf("loss did not decrease: %v → %v", loss0, loss1)
	}
	if acc < 0.5 {
		t.Fatalf("accuracy after training = %v", acc)
	}
}

func TestClientWeightsRoundTrip(t *testing.T) {
	train, _, err := dataset.Generate(dataset.Tiny(3, 30, 10, 43))
	if err != nil {
		t.Fatal(err)
	}
	a := newTinyClient(t, 0, train, 2)
	b := newTinyClient(t, 1, train, 3)
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("SetWeights must copy weights exactly")
		}
	}
	if a.SampleCount() != 30 {
		t.Fatalf("sample count = %d", a.SampleCount())
	}
}

func TestClientEmptyDataErrors(t *testing.T) {
	train, _, err := dataset.Generate(dataset.Tiny(3, 30, 10, 44))
	if err != nil {
		t.Fatal(err)
	}
	empty := train.Subset(nil)
	c := newTinyClient(t, 0, empty, 4)
	if _, err := c.TrainRound(); err == nil {
		t.Fatal("want error training on empty shard")
	}
}

func TestEvaluateModelEmptyTest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := nn.MLP(4, nil, 2, rng)
	if _, _, err := EvaluateModel(m, &dataset.Dataset{Channels: 1, Size: 2, Classes: 2}, true); err == nil {
		t.Fatal("want error for empty test set")
	}
}

// Federated smoke test: 4 IID clients + FedAvg beat a single client
// trained on only a quarter of the data... at minimum, they must learn.
func TestFedAvgRoundsImproveGlobalModel(t *testing.T) {
	train, test, err := dataset.Generate(dataset.Tiny(4, 400, 100, 45))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	parts, err := dataset.Partition(train, 4, dataset.IID, rng)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = newTinyClient(t, i, parts[i], int64(10+i))
	}
	global := clients[0].Weights()
	for r := 0; r < 12; r++ {
		models := make([][]float64, len(clients))
		counts := make([]float64, len(clients))
		for i, c := range clients {
			if err := c.SetWeights(global); err != nil {
				t.Fatal(err)
			}
			if _, err := c.TrainRound(); err != nil {
				t.Fatal(err)
			}
			models[i] = c.Weights()
			counts[i] = float64(c.SampleCount())
		}
		global, err = WeightedAverage(models, counts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := clients[0].SetWeights(global); err != nil {
		t.Fatal(err)
	}
	acc, _, err := clients[0].Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("federated accuracy = %v, want ≥ 0.6", acc)
	}
}
