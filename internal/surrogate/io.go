package surrogate

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// snapshot is the gob-serializable form of a model.
type snapshot struct {
	Cfg    ModelConfig
	Norm   Normalization
	Gamma  float64
	Params [][]float64
}

// Save writes the model (architecture, normalization, weights) to w.
func (m *Model) Save(w io.Writer) error {
	s := snapshot{Cfg: m.Cfg, Norm: m.Norm, Gamma: m.GammaHint, Params: make([][]float64, len(m.lay.segs))}
	off := 0
	for i, n := range m.lay.segs {
		s.Params[i] = m.params[off : off+n]
		off += n
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a model previously written with Save.
func Load(r io.Reader) (*Model, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("surrogate: decode model: %w", err)
	}
	m := NewModel(s.Cfg)
	m.Norm = s.Norm
	m.GammaHint = s.Gamma
	if len(m.lay.segs) != len(s.Params) {
		return nil, fmt.Errorf("surrogate: snapshot has %d tensors, model needs %d",
			len(s.Params), len(m.lay.segs))
	}
	off := 0
	for i, n := range m.lay.segs {
		if n != len(s.Params[i]) {
			return nil, fmt.Errorf("surrogate: tensor %d size mismatch (%d vs %d)",
				i, len(s.Params[i]), n)
		}
		off += copy(m.params[off:], s.Params[i])
	}
	return m, nil
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
