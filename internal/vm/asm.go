package vm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Assembler builds bytecode programmatically; it is used by the MiniSol
// code generator and by tests. Labels give symbolic jump targets that are
// resolved at Build time.
type Assembler struct {
	code   []byte
	labels map[string]int
	// fixups records positions of PUSH immediates that await label
	// resolution.
	fixups map[int]string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int), fixups: make(map[int]string)}
}

// Op appends a bare opcode.
func (a *Assembler) Op(op Op) *Assembler {
	a.code = append(a.code, byte(op))
	return a
}

// Push appends PUSH with an immediate value.
func (a *Assembler) Push(v uint64) *Assembler {
	a.code = append(a.code, byte(PUSH))
	a.code = binary.BigEndian.AppendUint64(a.code, v)
	return a
}

// PushLabel appends PUSH whose immediate will be the label's address.
func (a *Assembler) PushLabel(name string) *Assembler {
	a.code = append(a.code, byte(PUSH))
	a.fixups[len(a.code)] = name
	a.code = binary.BigEndian.AppendUint64(a.code, 0)
	return a
}

// Label defines a jump target here, emitting a JUMPDEST.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("vm: duplicate label %q", name))
	}
	a.labels[name] = len(a.code)
	a.code = append(a.code, byte(JUMPDEST))
	return a
}

// Dup appends DUP n.
func (a *Assembler) Dup(n int) *Assembler {
	a.code = append(a.code, byte(DUP), byte(n))
	return a
}

// Swap appends SWAP n.
func (a *Assembler) Swap(n int) *Assembler {
	a.code = append(a.code, byte(SWAP), byte(n))
	return a
}

// Log appends LOG n.
func (a *Assembler) Log(nargs int) *Assembler {
	a.code = append(a.code, byte(LOG), byte(nargs))
	return a
}

// Build resolves labels and returns the bytecode.
func (a *Assembler) Build() ([]byte, error) {
	out := append([]byte(nil), a.code...)
	for pos, name := range a.fixups {
		target, ok := a.labels[name]
		if !ok {
			return nil, fmt.Errorf("vm: undefined label %q", name)
		}
		binary.BigEndian.PutUint64(out[pos:], uint64(target))
	}
	return out, nil
}

// MustBuild is Build that panics on error; for tests and static programs.
func (a *Assembler) MustBuild() []byte {
	code, err := a.Build()
	if err != nil {
		panic(err)
	}
	return code
}

// Assemble parses simple one-instruction-per-line assembly text, the
// inverse of Disassemble plus label support ("name:" defines, "@name"
// references). Used in tests.
func Assemble(src string) ([]byte, error) {
	a := NewAssembler()
	nameToOp := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		nameToOp[name] = op
	}
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			a.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		fields := strings.Fields(line)
		op, ok := nameToOp[strings.ToUpper(fields[0])]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown op %q", lineNo+1, fields[0])
		}
		switch op {
		case PUSH:
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: PUSH needs one operand", lineNo+1)
			}
			if strings.HasPrefix(fields[1], "@") {
				a.PushLabel(fields[1][1:])
			} else {
				v, err := strconv.ParseUint(fields[1], 0, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
				}
				a.Push(v)
			}
		case DUP, SWAP, LOG:
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: %s needs one operand", lineNo+1, op)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
			}
			a.code = append(a.code, byte(op), byte(n))
		default:
			if len(fields) != 1 {
				return nil, fmt.Errorf("line %d: %s takes no operand", lineNo+1, op)
			}
			a.Op(op)
		}
	}
	return a.Build()
}
