package api

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The wire codec: POST /v1/jobs bodies and job envelopes are parsed and
// rendered by hand, because encoding/json's reflection was a fifth of the
// daemon's CPU at serving rates. encoding/json still defines the format. The
// encoder below reproduces its output byte for byte (the tests compare the two
// on random envelopes), and the decoder in wire_decode.go accepts only the
// canonical form and hands everything else to encoding/json.

// wireBuf is the scratch one decode or one encode borrows from wireBufs.
type wireBuf struct {
	b      []byte         // the body as read, or the envelope being rendered
	esc    []byte         // the string being unescaped
	strs   []string       // decisions keys being sorted
	inputs []pendingInput // inputs being collected
	names  []byte         // their names, end to end
}

// wireBufs is shared by the handler goroutines; nothing is per shard.
var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledWireBuf keeps one near-limit body from pinning a megabyte per P:
// a wireBuf any of whose buffers holds more bytes than this is left to the
// collector instead of going back to the pool.
const maxPooledWireBuf = 64 << 10

func (wb *wireBuf) release() {
	for _, size := range [...]int{
		cap(wb.b),
		cap(wb.esc),
		cap(wb.strs) * int(unsafe.Sizeof("")),
		cap(wb.inputs) * int(unsafe.Sizeof(pendingInput{})),
		cap(wb.names),
	} {
		if size > maxPooledWireBuf {
			return
		}
	}
	wireBufs.Put(wb)
}

// envelopeWriter renders a JobStatusResponse the way json.Encoder does: same
// field order and omitempty rules, same float format, same string escaping
// (HTML-safe), sorted map keys, null for a nil map, a trailing newline. Each
// method takes the separator and quoted field name as one literal.
type envelopeWriter struct {
	b []byte
	// err is the first value JSON cannot carry (a NaN or an infinity).
	err error
}

func (e *envelopeWriter) envelope(st *JobStatusResponse, keys *[]string) {
	e.str(`{"id":`, st.ID)
	e.str(`,"tenant":`, st.Tenant)
	e.int(`,"shard":`, st.Shard)
	e.str(`,"status":`, st.Status)
	e.float(`,"queue_delay_s":`, st.QueueDelayS)
	e.float(`,"submitted_sim_s":`, st.SubmittedSimS)
	if st.FinishedSimS != 0 {
		e.float(`,"finished_sim_s":`, st.FinishedSimS)
	}
	if st.Error != "" {
		e.str(`,"error":`, st.Error)
	}
	if st.ErrorCode != "" {
		e.str(`,"error_code":`, st.ErrorCode)
	}
	if len(st.Attempts) > 0 {
		e.b = append(e.b, `,"attempts":`...)
		open := `[{"at_s":`
		for i := range st.Attempts {
			a := &st.Attempts[i]
			e.float(open, a.AtS)
			open = `,{"at_s":`
			e.str(`,"task":`, a.Task)
			e.str(`,"capability":`, a.Capability)
			e.str(`,"implementation":`, a.Implementation)
			e.int(`,"attempt":`, a.Attempt)
			if a.BackoffS != 0 {
				e.float(`,"backoff_s":`, a.BackoffS)
			}
			if a.Error != "" {
				e.str(`,"error":`, a.Error)
			}
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if r := st.Result; r != nil {
		e.str(`,"result":{"name":`, r.Name)
		e.float(`,"makespan_s":`, r.MakespanS)
		e.float(`,"gpu_energy_wh":`, r.GPUEnergyWh)
		e.float(`,"cpu_energy_wh":`, r.CPUEnergyWh)
		e.float(`,"cost_usd":`, r.CostUSD)
		e.float(`,"est_cost_usd":`, r.EstCostUSD)
		e.float(`,"mean_gpu_util":`, r.MeanGPUUtil)
		e.float(`,"mean_cpu_util":`, r.MeanCPUUtil)
		e.float(`,"quality":`, r.Quality)
		e.float(`,"planning_overhead_frac":`, r.PlanningOverheadFrac)
		e.int(`,"tasks_completed":`, r.TasksCompleted)
		e.decisions(r.Decisions, keys)
		if r.Timeline != "" {
			e.str(`,"timeline":`, r.Timeline)
		}
		e.str(`,"template":`, r.Template)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}', '\n')
}

func (e *envelopeWriter) decisions(m map[string]string, keys *[]string) {
	if m == nil {
		e.b = append(e.b, `,"decisions":null`...)
		return
	}
	ks := (*keys)[:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	e.b = append(e.b, `,"decisions":{`...)
	sep := ""
	for _, k := range ks {
		e.str(sep, k)
		e.str(":", m[k])
		sep = ","
	}
	e.b = append(e.b, '}')
	clear(ks) // the pooled scratch must not keep a job's strings alive
	*keys = ks
}

func (e *envelopeWriter) int(name string, n int) {
	e.b = strconv.AppendInt(append(e.b, name...), int64(n), 10)
}

// float is encoding/json's floatEncoder: ES6 number formatting.
func (e *envelopeWriter) float(name string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("encoding job envelope: unsupported value %s: %s",
				strings.Trim(name, `[{,":`), strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	e.b = append(e.b, name...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str is encoding/json's appendString with escapeHTML on.
func (e *envelopeWriter) str(name, s string) {
	b := append(append(e.b, name...), '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
			b = append(b, '\\', `"\bfnrt`[k])
		} else {
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}
