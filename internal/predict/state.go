package predict

import (
	"fmt"
	"math"
)

// PredictorState is the live state of one history-based predictor, as its
// State method returns it and its SetState method installs it. Exactly one
// field is set, the one matching the predictor's type; LSO and the switcher
// nest their inner predictors' states.
type PredictorState struct {
	MA         *MAState         `json:"ma,omitempty"`
	EWMA       *EWMAState       `json:"ewma,omitempty"`
	HW         *HWState         `json:"hw,omitempty"`
	LSO        *LSOState        `json:"lso,omitempty"`
	Switcher   *SwitcherState   `json:"switcher,omitempty"`
	Regression *RegressionState `json:"regression,omitempty"`
	ECM        *ECMState        `json:"ecm,omitempty"`
}

// stateOf captures p's state. It is empty for a nil predictor and for
// types without serializable state.
func stateOf(p HB) PredictorState {
	var st PredictorState
	switch p := p.(type) {
	case *MA:
		s := p.State()
		st.MA = &s
	case *EWMA:
		s := p.State()
		st.EWMA = &s
	case *HoltWinters:
		s := p.State()
		st.HW = &s
	case *LSO:
		s := p.State()
		st.LSO = &s
	case *StabilitySwitcher:
		s := p.State()
		st.Switcher = &s
	case *Regression:
		s := p.State()
		st.Regression = &s
	case *ECM:
		s := p.State()
		st.ECM = &s
	}
	return st
}

// setStateOf installs st into p. st must carry exactly the state of p's
// type; anything else — another predictor's state, none at all, or a value
// the predictor's own SetState refuses — is an error, never a panic.
func setStateOf(p HB, st PredictorState) error {
	if n := st.count(); n != 1 {
		return fmt.Errorf("%s: %d predictor states, want 1", p.Name(), n)
	}
	switch p := p.(type) {
	case *MA:
		if st.MA != nil {
			return p.SetState(*st.MA)
		}
	case *EWMA:
		if st.EWMA != nil {
			return p.SetState(*st.EWMA)
		}
	case *HoltWinters:
		if st.HW != nil {
			return p.SetState(*st.HW)
		}
	case *LSO:
		if st.LSO != nil {
			return p.SetState(*st.LSO)
		}
	case *StabilitySwitcher:
		if st.Switcher != nil {
			return p.SetState(*st.Switcher)
		}
	case *Regression:
		if st.Regression != nil {
			return p.SetState(*st.Regression)
		}
	case *ECM:
		if st.ECM != nil {
			return p.SetState(*st.ECM)
		}
	}
	return fmt.Errorf("%s: state of another predictor type", p.Name())
}

// count returns how many of the state's fields are set.
func (st PredictorState) count() int {
	n := 0
	for _, set := range []bool{st.MA != nil, st.EWMA != nil, st.HW != nil, st.LSO != nil,
		st.Switcher != nil, st.Regression != nil, st.ECM != nil} {
		if set {
			n++
		}
	}
	return n
}

// finite reports whether every value is neither infinite nor NaN.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}
