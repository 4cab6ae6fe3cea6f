package openflow

import "fmt"

// OpKind discriminates the FlowMod variants of a batch operation.
type OpKind uint8

// Batch operation kinds.
const (
	// OpAdd installs Flow.
	OpAdd OpKind = iota + 1
	// OpDelete removes the flow with ID.
	OpDelete
	// OpModify replaces priority and actions of the flow with ID.
	OpModify
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	default:
		return "unknown"
	}
}

// FlowOp is one FlowMod of a batch: an add carries the flow to install,
// a delete the target ID, a modify the target ID plus the new priority and
// instruction set. Batches model OpenFlow bundles: the controller collects
// every FlowMod one control operation owes a switch and ships them in a
// single southbound call instead of one round-trip per flow.
type FlowOp struct {
	Kind     OpKind
	Flow     Flow     // OpAdd
	ID       FlowID   // OpDelete, OpModify
	Priority int      // OpModify
	Actions  []Action // OpModify
}

// AddOp builds an add operation.
func AddOp(f Flow) FlowOp { return FlowOp{Kind: OpAdd, Flow: f} }

// DeleteOp builds a delete operation.
func DeleteOp(id FlowID) FlowOp { return FlowOp{Kind: OpDelete, ID: id} }

// ModifyOp builds a modify operation.
func ModifyOp(id FlowID, priority int, actions []Action) FlowOp {
	return FlowOp{Kind: OpModify, ID: id, Priority: priority, Actions: actions}
}

// AppendBatch applies the operations in order, stopping at the first
// failure — an add or modify the admission rule refuses
// (ErrPriorityMismatch) is one, and leaves the table as the ops before it
// left it. It appends one FlowID per successfully applied operation to ids
// — the assigned ID for adds, zero for deletes and modifies — and returns
// the extended slice, so a caller can tell exactly which prefix of the
// batch took effect when an error is returned. It allocates only when ids
// must grow.
func (t *Table) AppendBatch(ids []FlowID, ops []FlowOp) ([]FlowID, error) {
	t.stats.Batches++
	for i, op := range ops {
		switch op.Kind {
		case OpAdd:
			id, err := t.TryAdd(op.Flow)
			if err != nil {
				return ids, fmt.Errorf("openflow: batch op %d: %w", i, err)
			}
			ids = append(ids, id)
		case OpDelete:
			if !t.Delete(op.ID) {
				return ids, fmt.Errorf("openflow: batch op %d: no flow %d", i, op.ID)
			}
			ids = append(ids, 0)
		case OpModify:
			if err := t.Modify(op.ID, op.Priority, op.Actions); err != nil {
				return ids, fmt.Errorf("openflow: batch op %d: %w", i, err)
			}
			ids = append(ids, 0)
		default:
			return ids, fmt.Errorf("openflow: batch op %d: unknown kind %d", i, op.Kind)
		}
	}
	return ids, nil
}
