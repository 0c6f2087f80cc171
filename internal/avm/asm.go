package avm

import (
	"encoding/binary"
	"fmt"
)

// Assembler builds AVM programs with label-resolved relative branches; the
// MiniSol AVM backend and the tests use it.
type Assembler struct {
	code   []byte
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	pos   int // offset of the 2-byte displacement
	label string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int)}
}

// Op appends a bare opcode.
func (a *Assembler) Op(op Op) *Assembler {
	a.code = append(a.code, byte(op))
	return a
}

// PushInt appends pushint with an immediate.
func (a *Assembler) PushInt(v uint64) *Assembler {
	a.code = append(a.code, byte(OpPushInt))
	a.code = binary.BigEndian.AppendUint64(a.code, v)
	return a
}

// Branch appends a branching opcode targeting a label.
func (a *Assembler) Branch(op Op, label string) *Assembler {
	switch op {
	case OpBranch, OpBZ, OpBNZ, OpCallSub:
	default:
		panic(fmt.Sprintf("avm: %v is not a branch", op))
	}
	a.code = append(a.code, byte(op))
	a.fixups = append(a.fixups, fixup{pos: len(a.code), label: label})
	a.code = append(a.code, 0, 0)
	return a
}

// Label defines a branch target at the current position.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("avm: duplicate label %q", name))
	}
	a.labels[name] = len(a.code)
	return a
}

// Load appends load <slot>.
func (a *Assembler) Load(slot uint8) *Assembler {
	a.code = append(a.code, byte(OpLoad), slot)
	return a
}

// Store appends store <slot>.
func (a *Assembler) Store(slot uint8) *Assembler {
	a.code = append(a.code, byte(OpStore), slot)
	return a
}

// Log appends log <nargs>.
func (a *Assembler) Log(nargs uint8) *Assembler {
	a.code = append(a.code, byte(OpLog), nargs)
	return a
}

// Build resolves branch displacements and returns the program.
func (a *Assembler) Build() ([]byte, error) {
	out := append([]byte(nil), a.code...)
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("avm: undefined label %q", f.label)
		}
		off := target - (f.pos + 2)
		if off < -32768 || off > 32767 {
			return nil, fmt.Errorf("avm: branch to %q out of 16-bit range", f.label)
		}
		binary.BigEndian.PutUint16(out[f.pos:], uint16(int16(off)))
	}
	return out, nil
}

// MustBuild is Build that panics on error.
func (a *Assembler) MustBuild() []byte {
	p, err := a.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders a program as TEAL-flavored assembly for debugging.
func Disassemble(program []byte) string {
	out := ""
	pc := 0
	for pc < len(program) {
		op := Op(program[pc])
		out += fmt.Sprintf("%04d %s", pc, op)
		pc++
		switch op {
		case OpPushInt:
			if pc+8 <= len(program) {
				out += fmt.Sprintf(" %d", binary.BigEndian.Uint64(program[pc:]))
				pc += 8
			}
		case OpBranch, OpBZ, OpBNZ, OpCallSub:
			if pc+2 <= len(program) {
				off := int(int16(binary.BigEndian.Uint16(program[pc:])))
				out += fmt.Sprintf(" -> %04d", pc+2+off)
				pc += 2
			}
		case OpLoad, OpStore, OpLog:
			if pc < len(program) {
				out += fmt.Sprintf(" %d", program[pc])
				pc++
			}
		}
		out += "\n"
	}
	return out
}
