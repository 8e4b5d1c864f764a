package appir

import (
	"fmt"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// ConcreteRule is a fully evaluated flow rule ready to become a flow_mod.
type ConcreteRule struct {
	Match       openflow.Match
	Priority    uint16
	IdleTimeout uint16
	HardTimeout uint16
	Actions     []openflow.Action
}

// String renders the rule.
func (r ConcreteRule) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s",
		r.Priority, r.Match.String(), openflow.ActionsString(r.Actions))
}

// Decision is the outcome of executing a handler on one packet_in event.
type Decision struct {
	// Installs are the Modify State messages the handler emitted.
	Installs []ConcreteRule
	// Outputs are packet_out actions for the triggering packet. When the
	// handler installed a rule, these mirror the rule's actions (the
	// buffer_id idiom).
	Outputs []openflow.Action
	// Dropped reports an explicit drop of the triggering packet.
	Dropped bool
	// Learned reports whether global state changed.
	Learned bool
}

// Env is the evaluation environment of one handler invocation.
type Env struct {
	State  *State
	Packet *netpkt.Packet
	InPort uint16
}

// Exec runs a program's handler on one packet_in event against live
// global state, returning the decision. It mirrors POX's event dispatch:
// statements run top to bottom, branches choose on live values, Learn
// mutates the shared state.
func Exec(p *Program, st *State, pkt *netpkt.Packet, inPort uint16) (Decision, error) {
	env := &Env{State: st, Packet: pkt, InPort: inPort}
	var d Decision
	if err := execStmts(p.Handler, env, &d); err != nil {
		return Decision{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	return d, nil
}

func execStmts(stmts []Stmt, env *Env, d *Decision) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case If:
			v, err := EvalExpr(st.Cond, env)
			if err != nil {
				return err
			}
			if v.Kind != KindBool {
				return fmt.Errorf("if condition %s: not a bool (got %v)", st.Cond, v.Kind)
			}
			branch := st.Else
			if v.Bool() {
				branch = st.Then
			}
			if err := execStmts(branch, env, d); err != nil {
				return err
			}
		case Install:
			rule, err := EvalRuleTemplate(st.Rule, env)
			if err != nil {
				return err
			}
			d.Installs = append(d.Installs, rule)
			d.Outputs = append(d.Outputs, rule.Actions...)
		case PacketOut:
			acts, err := EvalActions(st.Actions, env)
			if err != nil {
				return err
			}
			d.Outputs = append(d.Outputs, acts...)
		case Learn:
			key, err := EvalExpr(st.Key, env)
			if err != nil {
				return err
			}
			val, err := EvalExpr(st.Val, env)
			if err != nil {
				return err
			}
			before := env.State.Version()
			env.State.Learn(st.Table, key, val)
			if env.State.Version() != before {
				d.Learned = true
			}
		case Unlearn:
			key, err := EvalExpr(st.Key, env)
			if err != nil {
				return err
			}
			before := env.State.Version()
			env.State.Unlearn(st.Table, key)
			if env.State.Version() != before {
				d.Learned = true
			}
		case SetScalar:
			val, err := EvalExpr(st.Val, env)
			if err != nil {
				return err
			}
			before := env.State.Version()
			env.State.SetScalar(st.Name, val)
			if env.State.Version() != before {
				d.Learned = true
			}
		case Drop:
			d.Dropped = true
		default:
			return fmt.Errorf("unsupported statement %T", s)
		}
	}
	return nil
}

// EvalExpr evaluates an expression against a concrete environment.
func EvalExpr(e Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case FieldRef:
		return FieldOf(env.Packet, env.InPort, x.F), nil
	case Const:
		return x.V, nil
	case ScalarRef:
		v, ok := env.State.Scalar(x.Name)
		if !ok {
			return Value{}, fmt.Errorf("scalar %s: unset", x.Name)
		}
		return v, nil
	case Eq:
		a, err := EvalExpr(x.A, env)
		if err != nil {
			return Value{}, err
		}
		b, err := EvalExpr(x.B, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(a == b), nil
	case And:
		a, err := EvalExpr(x.A, env)
		if err != nil {
			return Value{}, err
		}
		if !a.Bool() {
			return BoolValue(false), nil
		}
		return EvalExpr(x.B, env)
	case Or:
		a, err := EvalExpr(x.A, env)
		if err != nil {
			return Value{}, err
		}
		if a.Bool() {
			return BoolValue(true), nil
		}
		return EvalExpr(x.B, env)
	case Not:
		a, err := EvalExpr(x.A, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(!a.Bool()), nil
	case InTable:
		k, err := EvalExpr(x.Key, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(env.State.Contains(x.Table, k)), nil
	case InPrefixTable:
		k, err := EvalExpr(x.Key, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(env.State.InAnyPrefix(x.Table, k)), nil
	case Lookup:
		k, err := EvalExpr(x.Key, env)
		if err != nil {
			return Value{}, err
		}
		v, ok := env.State.LookupTable(x.Table, k)
		if !ok {
			return Value{}, fmt.Errorf("lookup g.%s[%s]: no entry", x.Table, k)
		}
		return v, nil
	case LookupPrefix:
		k, err := EvalExpr(x.Key, env)
		if err != nil {
			return Value{}, err
		}
		v, ok := env.State.LookupLPM(x.Table, k)
		if !ok {
			return Value{}, fmt.Errorf("lpm g.%s[%s]: no entry", x.Table, k)
		}
		return v, nil
	case HighBit:
		a, err := EvalExpr(x.A, env)
		if err != nil {
			return Value{}, err
		}
		if a.Kind != KindIP {
			return Value{}, fmt.Errorf("highbit(%s): not an IP", x.A)
		}
		return BoolValue(a.IP().HighBit()), nil
	default:
		return Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// EvalRuleTemplate evaluates an Install's rule template into a concrete
// flow rule.
func EvalRuleTemplate(t RuleTemplate, env *Env) (ConcreteRule, error) {
	m := openflow.MatchAll()
	for _, mf := range t.Match {
		v, err := EvalExpr(mf.Val, env)
		if err != nil {
			return ConcreteRule{}, err
		}
		if err := BindMatchField(&m, mf.F, v, mf.PrefixLen); err != nil {
			return ConcreteRule{}, err
		}
	}
	acts, err := EvalActions(t.Actions, env)
	if err != nil {
		return ConcreteRule{}, err
	}
	return ConcreteRule{
		Match:       m,
		Priority:    t.Priority,
		IdleTimeout: t.IdleTimeout,
		HardTimeout: t.HardTimeout,
		Actions:     acts,
	}, nil
}

// BindMatchField writes one concrete field constraint into m.
func BindMatchField(m *openflow.Match, f Field, v Value, prefixLen int) error {
	switch f {
	case FInPort:
		m.Wildcards &^= openflow.WildInPort
		m.InPort = v.U16()
	case FEthSrc:
		m.Wildcards &^= openflow.WildDlSrc
		m.DlSrc = v.MAC()
	case FEthDst:
		m.Wildcards &^= openflow.WildDlDst
		m.DlDst = v.MAC()
	case FEthType:
		m.Wildcards &^= openflow.WildDlType
		m.DlType = v.U16()
	case FARPOp:
		m.Wildcards &^= openflow.WildNwProto
		m.NwProto = uint8(v.U16())
	case FNwSrc:
		m.NwSrc = v.IP()
		if prefixLen <= 0 || prefixLen > 32 {
			prefixLen = 32
		}
		m.SetNwSrcMaskLen(prefixLen)
	case FNwDst:
		m.NwDst = v.IP()
		if prefixLen <= 0 || prefixLen > 32 {
			prefixLen = 32
		}
		m.SetNwDstMaskLen(prefixLen)
	case FNwProto:
		m.Wildcards &^= openflow.WildNwProto
		m.NwProto = v.U8()
	case FNwTOS:
		m.Wildcards &^= openflow.WildNwTOS
		m.NwTOS = v.U8()
	case FTpSrc:
		m.Wildcards &^= openflow.WildTpSrc
		m.TpSrc = v.U16()
	case FTpDst:
		m.Wildcards &^= openflow.WildTpDst
		m.TpDst = v.U16()
	default:
		return fmt.Errorf("unsupported match field %v", f)
	}
	return nil
}

// EvalActions evaluates action templates into OpenFlow actions.
func EvalActions(ts []ActionTemplate, env *Env) ([]openflow.Action, error) {
	var out []openflow.Action
	for _, t := range ts {
		switch a := t.(type) {
		case ActOutput:
			v, err := EvalExpr(a.Port, env)
			if err != nil {
				return nil, err
			}
			out = append(out, openflow.Output(v.U16()))
		case ActFlood:
			out = append(out, openflow.Output(openflow.PortFlood))
		case ActSetNwDst:
			v, err := EvalExpr(a.IP, env)
			if err != nil {
				return nil, err
			}
			out = append(out, openflow.ActionSetNwDst{IP: v.IP()})
		default:
			return nil, fmt.Errorf("unsupported action template %T", t)
		}
	}
	return out, nil
}
