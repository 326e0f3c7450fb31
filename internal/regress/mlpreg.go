package regress

import (
	"fmt"

	"predictddl/internal/nn"
	"predictddl/internal/tensor"
)

// MLPRegressor is a single-hidden-layer perceptron regressor ("MLP" in
// Fig. 10). The paper limits the hidden layer to 1–5 neurons to avoid
// over-fitting; that is the default search space in the grid search.
type MLPRegressor struct {
	// HiddenNeurons is the hidden-layer width (paper: 1–5).
	HiddenNeurons int
	// Epochs is the number of full passes over the training data.
	Epochs int
	// LearningRate feeds the Adam optimizer.
	LearningRate float64
	// Seed makes weight init and shuffling deterministic.
	Seed int64

	scaler       *StandardScaler
	yMean, yStd  float64
	net          *nn.MLP
	featureCount int
}

// NewMLPRegressor returns an MLP regressor with h hidden neurons.
func NewMLPRegressor(h int) *MLPRegressor {
	return &MLPRegressor{HiddenNeurons: h, Epochs: 400, LearningRate: 0.01, Seed: 1}
}

// Name implements Regressor.
func (m *MLPRegressor) Name() string { return fmt.Sprintf("mlp-%d", m.HiddenNeurons) }

// Fit implements Regressor.
func (m *MLPRegressor) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	if m.HiddenNeurons < 1 {
		return fmt.Errorf("regress: MLP requires ≥1 hidden neuron, got %d", m.HiddenNeurons)
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 400
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.01
	}

	m.scaler = FitScaler(x)
	xs := m.scaler.TransformMatrix(x)
	// Standardize targets so the loss surface is well-conditioned.
	m.yMean = tensor.Mean(y)
	m.yStd = tensor.Std(y)
	if m.yStd == 0 {
		m.yStd = 1
	}
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - m.yMean) / m.yStd
	}

	rng := tensor.NewRNG(m.Seed)
	net := nn.NewMLP("mlpreg", []int{x.Cols(), m.HiddenNeurons, 1}, nn.Tanh, nn.Identity, rng)
	params := net.Params()
	opt := nn.NewAdam(lr)
	n := xs.Rows()
	for e := 0; e < epochs; e++ {
		order := rng.Perm(n)
		for _, i := range order {
			out, cache := net.Forward(nil, xs.Row(i))
			_, grad := nn.MSELoss(out, ys[i:i+1])
			nn.ZeroGrads(params)
			net.Backward(nil, cache, grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
	if err := nn.CheckFinite(params); err != nil {
		return fmt.Errorf("regress: MLP training diverged: %w", err)
	}
	m.net = net
	m.featureCount = x.Cols()
	return nil
}

// Predict implements Regressor.
func (m *MLPRegressor) Predict(features []float64) (float64, error) {
	if m.net == nil {
		return 0, ErrNotFitted
	}
	if len(features) != m.featureCount {
		return 0, fmt.Errorf("regress: MLP fitted on %d features, got %d", m.featureCount, len(features))
	}
	out := m.net.Infer(m.scaler.Transform(features))
	return out[0]*m.yStd + m.yMean, nil
}
