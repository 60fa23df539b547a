package telemetry

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), rendered from a
// daemon's typed metrics snapshot — the very struct it serves as JSON —
// so a metric is declared once, as a field. Every numeric or bool leaf
// carries a tag naming its series and type, and one member of each
// family (by convention the first) its help text:
//
//	Admitted uint64 `json:"admitted" prom:"ipcpd_jobs_total{outcome=admitted},counter" help:"Jobs by outcome."`
//
// Fields naming one family are rendered together under one # HELP /
// # TYPE, wherever they sit in the struct. A bool is a 0/1 gauge, a
// HistogramSnapshot field a histogram family; untagged structs are
// walked.

// PrometheusContentType is the Content-Type of the text exposition
// format this file emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

var histogramType = reflect.TypeOf(HistogramSnapshot{})

// quoteLabels turns a tag's {k=v,k2=v2} into the exposition's
// {k="v",k2="v2"}.
var quoteLabels = strings.NewReplacer("=", `="`, ",", `",`, "}", `"}`)

// promFamily is one family's header and rendered samples.
type promFamily struct {
	name, typ, help string
	samples         strings.Builder
}

// WritePrometheus renders snapshot, a struct or a pointer to one, as
// text exposition. An untagged numeric, bool or histogram leaf, a
// malformed tag, and a family whose members disagree on type or none of
// which carries help are errors, and then nothing is written.
func WritePrometheus(w io.Writer, snapshot any) error {
	var fams []*promFamily
	byName := map[string]*promFamily{}
	var walk func(v reflect.Value, path string) error
	walk = func(v reflect.Value, path string) error {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			path := path + "." + f.Name
			tag, ok := f.Tag.Lookup("prom")
			hist := fv.Type() == histogramType
			switch {
			case !ok && fv.Kind() == reflect.Struct && !hist:
				if err := walk(fv, path); err != nil {
					return err
				}
				continue
			case !ok && (hist || fv.Kind() == reflect.Bool || fv.CanInt() || fv.CanUint() || fv.CanFloat()):
				return fmt.Errorf("telemetry: metric %s has no prom tag", path)
			case !ok:
				continue
			}
			cut := strings.LastIndexByte(tag, ',')
			if cut < 0 {
				return fmt.Errorf("telemetry: %s: prom tag %q is not family{labels},type", path, tag)
			}
			series, typ := tag[:cut], tag[cut+1:]
			name, _, _ := strings.Cut(series, "{")
			if (typ == "histogram") != hist || (typ != "counter" && typ != "gauge" && !hist) {
				return fmt.Errorf("telemetry: %s: type %q does not fit a %s", path, typ, fv.Type())
			}
			fam := byName[name]
			if fam == nil {
				fam = &promFamily{name: name, typ: typ}
				byName[name] = fam
				fams = append(fams, fam)
			}
			if fam.typ != typ {
				return fmt.Errorf("telemetry: %s: family %s is both %s and %s", path, name, fam.typ, typ)
			}
			if h := f.Tag.Get("help"); h != "" {
				fam.help = h
			}
			if hist {
				writeHistogram(&fam.samples, name, fv.Interface().(HistogramSnapshot))
				continue
			}
			fam.samples.WriteString(quoteLabels.Replace(series) + " " + promValue(fv) + "\n")
		}
		return nil
	}
	if err := walk(reflect.Indirect(reflect.ValueOf(snapshot)), ""); err != nil {
		return err
	}
	var out strings.Builder
	for _, f := range fams {
		if f.help == "" {
			return fmt.Errorf("telemetry: family %s has no help tag", f.name)
		}
		fmt.Fprintf(&out, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.typ, f.samples.String())
	}
	_, err := io.WriteString(w, out.String())
	return err
}

// promValue renders a numeric or bool leaf: integers exactly, floats the
// shortest round-trip way, bools as 0/1.
func promValue(v reflect.Value) string {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return "1"
		}
		return "0"
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	}
	return promFloat(v.Float())
}

// promFloat renders a float the way Prometheus clients expect: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram renders a histogram family's samples: cumulative
// _bucket{le="..."} samples (including the mandatory le="+Inf"), _sum,
// and _count.
func writeHistogram(b *strings.Builder, name string, s HistogramSnapshot) {
	for _, bk := range s.Buckets {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, promFloat(bk.LE), bk.Count)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n", name, s.Count, name, promFloat(s.Sum), name, s.Count)
}
