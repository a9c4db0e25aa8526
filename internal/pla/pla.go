// Package pla reads and writes espresso-format PLA files, the interchange
// format of the IWLS'93/MCNC benchmark suite the paper evaluates on.
//
// The subset supported covers the completely-specified functions the paper
// uses: .i/.o/.p/.ilb/.ob/.type/.e directives and {0,1,-} input plus
// {0,1,~,-} output rows (type fd treats '-' outputs as "not in this cover",
// matching espresso's default reading for ON-set covers).
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// File is a parsed PLA: the cover plus its metadata.
type File struct {
	Name      string   // optional model name (from comments or caller)
	InLabels  []string // .ilb labels, empty when absent
	OutLabels []string // .ob labels, empty when absent
	Type      string   // .type directive; "" means fd (espresso default)
	Cover     *logic.Cover
}

// Parse reads a PLA from r.
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	f := &File{}
	nIn, nOut := -1, -1
	declaredP := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".i":
				v, err := directiveInt(fields, lineNo)
				if err != nil {
					return nil, err
				}
				nIn = v
			case ".o":
				v, err := directiveInt(fields, lineNo)
				if err != nil {
					return nil, err
				}
				nOut = v
			case ".p":
				v, err := directiveInt(fields, lineNo)
				if err != nil {
					return nil, err
				}
				declaredP = v
			case ".ilb":
				f.InLabels = fields[1:]
			case ".ob":
				f.OutLabels = fields[1:]
			case ".type":
				if len(fields) > 1 {
					f.Type = fields[1]
				}
			case ".e", ".end":
				goto done
			default:
				// Ignore directives we do not model (.mv, .phase, ...): the
				// benchmark set in this repo does not use them.
			}
			continue
		}
		if nIn < 0 || nOut < 0 {
			return nil, fmt.Errorf("pla: line %d: cube before .i/.o declarations", lineNo)
		}
		if f.Cover == nil {
			f.Cover = logic.NewCover(nIn, nOut)
		}
		cube, err := logic.ParseCube(line, nIn, nOut)
		if err != nil {
			return nil, fmt.Errorf("pla: line %d: %v", lineNo, err)
		}
		f.Cover.Cubes = append(f.Cover.Cubes, cube)
	}
done:
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla: %v", err)
	}
	if nIn < 0 || nOut < 0 {
		return nil, fmt.Errorf("pla: missing .i/.o declarations")
	}
	if f.Cover == nil {
		f.Cover = logic.NewCover(nIn, nOut)
	}
	if declaredP >= 0 && declaredP != f.Cover.NumProducts() {
		return nil, fmt.Errorf("pla: .p declares %d products, file has %d", declaredP, f.Cover.NumProducts())
	}
	if len(f.InLabels) > 0 && len(f.InLabels) != nIn {
		return nil, fmt.Errorf("pla: .ilb has %d labels, .i declares %d", len(f.InLabels), nIn)
	}
	if len(f.OutLabels) > 0 && len(f.OutLabels) != nOut {
		return nil, fmt.Errorf("pla: .ob has %d labels, .o declares %d", len(f.OutLabels), nOut)
	}
	return f, nil
}

func directiveInt(fields []string, lineNo int) (int, error) {
	if len(fields) < 2 {
		return 0, fmt.Errorf("pla: line %d: %s needs an argument", lineNo, fields[0])
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || v < 0 {
		return 0, fmt.Errorf("pla: line %d: bad %s argument %q", lineNo, fields[0], fields[1])
	}
	return v, nil
}

// Write emits the PLA in espresso format.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if f.Name != "" {
		fmt.Fprintf(bw, "# %s\n", f.Name)
	}
	fmt.Fprintf(bw, ".i %d\n.o %d\n", f.Cover.NumIn, f.Cover.NumOut)
	if len(f.InLabels) > 0 {
		fmt.Fprintf(bw, ".ilb %s\n", strings.Join(f.InLabels, " "))
	}
	if len(f.OutLabels) > 0 {
		fmt.Fprintf(bw, ".ob %s\n", strings.Join(f.OutLabels, " "))
	}
	if f.Type != "" {
		fmt.Fprintf(bw, ".type %s\n", f.Type)
	}
	fmt.Fprintf(bw, ".p %d\n", f.Cover.NumProducts())
	for _, cube := range f.Cover.Cubes {
		fmt.Fprintln(bw, cube.String())
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// String renders the PLA as text.
func (f *File) String() string {
	var b strings.Builder
	if err := f.Write(&b); err != nil {
		return "" // strings.Builder never errors; keep the signature honest
	}
	return b.String()
}
