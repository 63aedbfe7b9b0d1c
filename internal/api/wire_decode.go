package api

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// jobParser is the strict decoder for a POST /v1/jobs body in the canonical
// form JSON libraries emit: one object whose keys are the JobRequest tag names,
// spelled exactly and each at most once, with values of the field's type. It
// declines — reports false, and the caller re-decodes the same bytes with
// encoding/json — on anything else: unknown, case-folded or duplicate keys,
// null, a number that does not fit, invalid UTF-8, a lone surrogate, every
// syntax error. So it never has to produce an error text or reproduce an
// exotic-but-legal corner; whatever it accepts, encoding/json decodes to the
// same JobRequest. Like json.Decoder it stops at the object's closing brace
// and does not look at what follows.
type jobParser struct {
	data []byte
	pos  int
	wb   *wireBuf
	// lastAttrs is this request's previous attrs object, as bytes of data,
	// and lastMap the map it decoded to.
	lastAttrs []byte
	lastMap   map[string]float64
}

// peek skips whitespace and returns the next byte, 0 at the end of the data
// (0 starts no token, so callers need no separate end check).
func (p *jobParser) peek() byte {
	for ; p.pos < len(p.data); p.pos++ {
		if c := p.data[p.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

func (p *jobParser) open(c byte) bool {
	if p.peek() != c {
		return false
	}
	p.pos++
	return true
}

// next steps to the next member of an object (closing '}') or element of an
// array (closing ']'); more is false once the closing bracket is consumed. For
// an object it also parses the key, valid until the next string is parsed, and
// the colon.
func (p *jobParser) next(first bool, closing byte) (key []byte, more, ok bool) {
	c := p.peek()
	if c == closing {
		p.pos++
		return nil, false, true
	}
	if !first {
		if c != ',' {
			return nil, false, false
		}
		p.pos++
	}
	if closing == '}' {
		if key, ok = p.bytes(); !ok || !p.open(':') {
			return nil, false, false
		}
	}
	return key, true, true
}

// Bits of the seen-fields masks below.
const (
	fTenant = 1 << iota
	fDescription
	fConstraint
	fMinQuality
	fTasks
	fInputs
	fMaxPaths
	fSLOClass
	fWait
	fTimeline
	fName
	fKind
	fAttrs
)

func (p *jobParser) request(req *JobRequest) bool {
	if !p.open('{') {
		return false
	}
	seen := 0
	for first := true; ; first = false {
		key, more, ok := p.next(first, '}')
		if !ok || !more {
			return ok
		}
		bit := 0
		switch string(key) {
		case "tenant":
			bit = fTenant
			req.Tenant, ok = p.str(false)
		case "description":
			bit = fDescription
			req.Description, ok = p.str(false)
		case "constraint":
			bit = fConstraint
			req.Constraint, ok = p.str(true)
		case "min_quality":
			bit = fMinQuality
			req.MinQuality, ok = p.float()
		case "tasks":
			bit = fTasks
			req.Tasks, ok = p.tasks()
		case "inputs":
			bit = fInputs
			req.Inputs, ok = p.inputs()
		case "max_paths":
			bit = fMaxPaths
			req.MaxPaths, ok = p.integer()
		case "slo_class":
			bit = fSLOClass
			req.SLOClass, ok = p.str(true)
		case "wait":
			bit = fWait
			req.Wait, ok = p.boolean()
		case "timeline":
			bit = fTimeline
			req.Timeline, ok = p.boolean()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// tasks and inputs return a non-nil slice for "[]", as encoding/json does.
func (p *jobParser) tasks() ([]string, bool) {
	if !p.open('[') {
		return nil, false
	}
	tasks := []string{}
	for first := true; ; first = false {
		_, more, ok := p.next(first, ']')
		if !ok || !more {
			return tasks, ok
		}
		s, ok := p.str(false)
		if !ok {
			return nil, false
		}
		tasks = append(tasks, s)
	}
}

// pendingInput is an input being collected: its name is the bytes of
// wireBuf.names up to nameEnd.
type pendingInput struct {
	InputRequest
	nameEnd int
}

// inputs collects the elements in pooled scratch and returns an exact-size
// copy whose names are cut from one string, so a request costs two objects
// here whatever its length.
func (p *jobParser) inputs() ([]InputRequest, bool) {
	if !p.open('[') {
		return nil, false
	}
	ins := p.wb.inputs[:0]
	p.wb.names = p.wb.names[:0]
	defer func() {
		clear(ins) // the pooled scratch must not keep a request's strings alive
		p.wb.inputs = ins
	}()
	for first := true; ; first = false {
		_, more, ok := p.next(first, ']')
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
		ins = append(ins, pendingInput{})
		in := &ins[len(ins)-1]
		if !p.input(&in.InputRequest) {
			return nil, false
		}
		in.nameEnd = len(p.wb.names)
	}
	out := make([]InputRequest, len(ins))
	names, start := string(p.wb.names), 0
	for i, in := range ins {
		out[i] = in.InputRequest
		out[i].Name = names[start:in.nameEnd]
		start = in.nameEnd
	}
	return out, true
}

// input leaves the name in wireBuf.names for inputs to cut.
func (p *jobParser) input(in *InputRequest) bool {
	if !p.open('{') {
		return false
	}
	seen := 0
	for first := true; ; first = false {
		key, more, ok := p.next(first, '}')
		if !ok || !more {
			return ok
		}
		bit := 0
		switch string(key) {
		case "name":
			bit = fName
			var name []byte
			name, ok = p.bytes()
			p.wb.names = append(p.wb.names, name...)
		case "kind":
			bit = fKind
			in.Kind, ok = p.str(true)
		case "attrs":
			bit = fAttrs
			in.Attrs, ok = p.attrs()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// attrs keeps the last of a repeated key, as encoding/json does for a map. An
// object byte-identical to the request's previous attrs object is not parsed
// again: it decodes to that object's map, which is why a decoded map is
// read-only (InputRequest.Attrs). Only the previous object is compared, so a
// body costs one pass however its objects repeat.
func (p *jobParser) attrs() (map[string]float64, bool) {
	if p.peek() != '{' {
		return nil, false
	}
	start := p.pos
	if n := len(p.lastAttrs); n > 0 && bytes.HasPrefix(p.data[start:], p.lastAttrs) {
		p.pos += n
		return p.lastMap, true
	}
	p.pos++
	m := make(map[string]float64)
	for first := true; ; first = false {
		key, more, ok := p.next(first, '}')
		if !ok {
			return nil, false
		}
		if !more {
			p.lastAttrs, p.lastMap = p.data[start:p.pos], m
			return m, true
		}
		k := text(key, true)
		if m[k], ok = p.float(); !ok {
			return nil, false
		}
	}
}

// closedSets are the strings requests repeat: constraints, input kinds, the
// attribute keys the planner reads, SLO classes.
var closedSets = [...]string{
	"MIN_COST", "MIN_LATENCY", "MIN_POWER", "MAX_QUALITY",
	"video", "text", "user-profile", "topic", "document",
	"duration_s", "scene_len_s", "scenes", "frames_per_scene", "queries", "tokens",
	"gold", "silver", "bronze",
}

// text copies b into a string, or with intern set returns the member of
// closedSets it spells without allocating.
func text(b []byte, intern bool) string {
	if intern {
		for _, s := range closedSets {
			if string(b) == s {
				return s
			}
		}
	}
	return string(b)
}

func (p *jobParser) str(intern bool) (string, bool) {
	b, ok := p.bytes()
	if !ok {
		return "", false
	}
	return text(b, intern), true
}

// bytes parses a string and returns its contents — a view of the body, or of
// the unescape scratch, valid until the next call.
func (p *jobParser) bytes() ([]byte, bool) {
	if !p.open('"') {
		return nil, false
	}
	start, ascii := p.pos, true
	for i := start; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			p.pos = i + 1
			b := p.data[start:i]
			return b, ascii || utf8.Valid(b)
		case c == '\\':
			return p.unescape(start, i)
		case c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// unescape finishes a string whose first backslash is at data[i].
func (p *jobParser) unescape(start, i int) ([]byte, bool) {
	out := append(p.wb.esc[:0], p.data[start:i]...)
	defer func() { p.wb.esc = out }()
	for i < len(p.data) {
		c := p.data[i]
		i++
		switch {
		case c == '"':
			p.pos = i
			return out, utf8.Valid(out)
		case c < ' ' || i >= len(p.data):
			return nil, false
		case c != '\\':
			out = append(out, c)
			continue
		}
		c = p.data[i]
		i++
		if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[k])
			continue
		}
		if c != 'u' {
			return nil, false
		}
		r := hex4(p.data, i)
		i += 4
		if utf16.IsSurrogate(r) {
			// A pair, or decline: encoding/json substitutes U+FFFD for a lone half.
			if i+2 > len(p.data) || p.data[i] != '\\' || p.data[i+1] != 'u' {
				return nil, false
			}
			if r = utf16.DecodeRune(r, hex4(p.data, i+2)); r == utf8.RuneError {
				return nil, false
			}
			i += 6
		}
		if r < 0 {
			return nil, false
		}
		out = utf8.AppendRune(out, r)
	}
	return nil, false
}

// hex4 reads four hex digits at b[i:], -1 if they are not there.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	n, err := strconv.ParseUint(string(b[i:i+4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}

// number scans one literal of the JSON number grammar; whole reports that it
// has neither fraction nor exponent.
func (p *jobParser) number() (lit []byte, whole, ok bool) {
	p.peek()
	i := p.pos
	has := func(set string) bool {
		if i < len(p.data) && strings.IndexByte(set, p.data[i]) >= 0 {
			i++
			return true
		}
		return false
	}
	digits := func() bool {
		start := i
		for i < len(p.data) && p.data[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	has("-")
	// A leading 0 stands alone: what follows it in "01" is left to the caller,
	// which expects a separator there.
	if !has("0") && !digits() {
		return nil, false, false
	}
	frac := has(".")
	if frac && !digits() {
		return nil, false, false
	}
	exp := has("eE")
	if exp {
		has("+-")
		if !digits() {
			return nil, false, false
		}
	}
	lit = p.data[p.pos:i]
	p.pos = i
	return lit, !frac && !exp, true
}

func (p *jobParser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

func (p *jobParser) integer() (int, bool) {
	lit, whole, ok := p.number()
	if !ok || !whole {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

func (p *jobParser) boolean() (bool, bool) {
	p.peek()
	switch rest := p.data[p.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.pos += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.pos += 5
		return false, true
	}
	return false, false
}

// errReader ends the replay of a body with the error that ended its read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
