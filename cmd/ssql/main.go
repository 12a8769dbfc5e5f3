// Command ssql runs a SQL query over JSON-lines files, in batch mode or as
// an incrementally maintained stream:
//
//	ssql -table events=./data -schema 'country string, latency double, time timestamp' \
//	     -query 'SELECT country, count(*) AS c FROM events GROUP BY country'
//
//	ssql -stream events=./incoming -schema '...' -mode complete -watch \
//	     -query 'SELECT country, count(*) FROM events GROUP BY country'
//
// With -watch the query keeps running: drop new files into the directory
// and each trigger prints the updated result, demonstrating the paper's
// §4.1 quickstart end to end. While watching, the process answers simple
// commands on stdin — `:status` pretty-prints the last QueryProgress
// (throughput, duration breakdown, bottleneck stage), `:metrics` dumps the
// metric registry, `:health` prints the health report (latency lineage,
// per-partition rows and task time),
// `:subscribe` attaches a live subscription to the
// query's serving hub and prints each committed epoch as a frame
// (`:unsubscribe` detaches), `:quit` stops — and -monitor ADDR
// additionally serves the §7.4 HTTP monitoring endpoint, including the
// hub's /queries/{name}/subscribe, /poll and /state routes.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	structream "structream"
	"structream/internal/serve"
	"structream/internal/sinks"
	"structream/internal/sql"
)

func main() {
	var (
		tableFlag  = flag.String("table", "", "static input, name=dir (JSON-lines files)")
		streamFlag = flag.String("stream", "", "streaming input, name=dir (JSON-lines files)")
		schemaFlag = flag.String("schema", "", "input schema: 'col type, col type, ...'")
		query      = flag.String("query", "", "SQL query (required)")
		mode       = flag.String("mode", "complete", "output mode for streaming: append, update or complete")
		watch      = flag.Bool("watch", false, "keep running, re-triggering as new files arrive")
		interval   = flag.Duration("interval", time.Second, "trigger interval with -watch")
		checkpoint = flag.String("checkpoint", "", "checkpoint directory (streaming)")
		monitorAt  = flag.String("monitor", "", "with -watch, serve the HTTP monitoring endpoint on this address (e.g. localhost:8080)")
		workers    = flag.Int("workers", 0, "size the task pool to this many workers and split each source partition's range into as many map tasks (>1; default: a pool of two, one task per partition)")
	)
	flag.Parse()
	if *query == "" {
		fatal(fmt.Errorf("-query is required"))
	}

	s := structream.NewSession()
	schema, err := parseSchema(*schemaFlag)
	if err != nil {
		fatal(err)
	}
	streaming := false
	if *tableFlag != "" {
		name, dir, err := splitBinding(*tableFlag)
		if err != nil {
			fatal(err)
		}
		df, err := s.Read().Format("json").Schema(schema).Load(dir)
		if err != nil {
			fatal(err)
		}
		s.CreateView(name, df)
	}
	if *streamFlag != "" {
		name, dir, err := splitBinding(*streamFlag)
		if err != nil {
			fatal(err)
		}
		df, err := s.ReadStream().Format("json").Schema(schema).Option("name", name).Load(dir)
		if err != nil {
			fatal(err)
		}
		s.CreateView(name, df)
		streaming = true
	}

	df, err := s.SQL(*query)
	if err != nil {
		fatal(err)
	}

	if !streaming {
		if err := df.Show(os.Stdout, 100); err != nil {
			fatal(err)
		}
		return
	}

	outputMode := structream.Complete
	switch *mode {
	case "append":
		outputMode = structream.Append
	case "update":
		outputMode = structream.Update
	case "complete":
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	ckpt := *checkpoint
	if ckpt == "" {
		dir, err := os.MkdirTemp("", "ssql-ckpt-*")
		if err != nil {
			fatal(err)
		}
		ckpt = dir
	}
	trigger := structream.Once()
	if *watch {
		trigger = structream.ProcessingTime(*interval)
	}
	w := df.WriteStream().OutputMode(outputMode).Trigger(trigger).Checkpoint(ckpt)
	if *workers > 1 {
		w.Option("workers", strconv.Itoa(*workers))
	}
	var live *sinks.MemorySink
	if *watch {
		// Tee console output into a retained memory sink so the query is
		// publishable: :subscribe locally, /subscribe under -monitor.
		live = sinks.NewMemorySink()
		live.SetRetention(64)
		w.Sink(sinks.NewTeeSink(sinks.NewConsoleSink(os.Stdout), live))
	} else {
		w.Format("console")
	}
	q, err := w.Start("")
	if err != nil {
		fatal(err)
	}
	if !*watch {
		if err := q.AwaitTermination(); err != nil {
			fatal(err)
		}
		return
	}
	hub := s.Publish(q, live, serve.HubOptions{})
	if *monitorAt != "" {
		m, err := s.Monitor(*monitorAt)
		if err != nil {
			fatal(err)
		}
		defer m.Close()
		fmt.Fprintf(os.Stderr, "ssql: monitoring at http://%s/queries; subscribe at /queries/%s/subscribe\n", m.Addr(), q.Name())
	}
	fmt.Fprintf(os.Stderr, "ssql: watching; checkpoint at %s (:status, :metrics, :health, :subscribe, :quit or Ctrl-C)\n", ckpt)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	watchREPL(q, hub, os.Stdin, os.Stdout, sig)
	if err := q.Stop(); err != nil {
		fatal(err)
	}
}

// watchREPL blocks until interrupted or told to :quit, answering :status
// and :metrics commands with the query's live observability data and
// :subscribe/:unsubscribe with a live frame stream from the serving hub.
func watchREPL(q *structream.StreamingQuery, hub *serve.Hub, in io.Reader, out io.Writer, sig <-chan os.Signal) {
	var (
		subCancel context.CancelFunc
		subDone   chan struct{}
	)
	unsubscribe := func() {
		if subCancel != nil {
			subCancel()
			<-subDone
			subCancel, subDone = nil, nil
		}
	}
	defer unsubscribe()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for {
		select {
		case <-sig:
			return
		case line, open := <-lines:
			if !open {
				// stdin closed (e.g. running under a pipe): keep watching
				// until the signal arrives.
				<-sig
				return
			}
			switch cmd := strings.TrimSpace(line); cmd {
			case "":
			case ":quit", ":q":
				return
			case ":status":
				p, ok := q.LastProgress()
				fmt.Fprint(out, formatStatus(q.Name(), q.Status().String(), p, ok))
			case ":metrics":
				fmt.Fprint(out, formatMetrics(q.Name(), q.Metrics().Snapshot()))
			case ":health":
				fmt.Fprint(out, formatHealth(q.Health().Health()))
			case ":subscribe", ":sub":
				if hub == nil {
					fmt.Fprintln(out, "no serving hub published for this query")
					break
				}
				if subCancel != nil {
					fmt.Fprintln(out, "already subscribed (:unsubscribe to detach)")
					break
				}
				sub, err := hub.Subscribe(serve.SubscribeOptions{Cursor: -1})
				if err != nil {
					fmt.Fprintf(out, "subscribe failed: %v\n", err)
					break
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				subCancel, subDone = cancel, done
				go func() {
					defer close(done)
					defer sub.Close()
					for {
						f, err := sub.Next(ctx)
						if err != nil {
							if ctx.Err() == nil {
								fmt.Fprintf(out, "[serve] subscription ended: %v\n", err)
							}
							return
						}
						fmt.Fprint(out, formatFrame(f))
					}
				}()
				fmt.Fprintln(out, "subscribed: frames print as epochs commit (:unsubscribe to detach)")
			case ":unsubscribe", ":unsub":
				if subCancel == nil {
					fmt.Fprintln(out, "not subscribed")
					break
				}
				unsubscribe()
				fmt.Fprintln(out, "unsubscribed")
			default:
				fmt.Fprintf(out, "unknown command %q (try :status, :metrics, :health, :subscribe, :quit)\n", cmd)
			}
		}
	}
}

// parseSchema parses "name type, name type, ...".
func parseSchema(s string) (structream.Schema, error) {
	if strings.TrimSpace(s) == "" {
		return structream.Schema{}, fmt.Errorf("-schema is required, e.g. 'country string, latency double'")
	}
	var fields []structream.Field
	for _, part := range strings.Split(s, ",") {
		tokens := strings.Fields(strings.TrimSpace(part))
		if len(tokens) != 2 {
			return structream.Schema{}, fmt.Errorf("bad schema column %q (want 'name type')", part)
		}
		typ, ok := sql.TypeByName(strings.ToLower(tokens[1]))
		if !ok {
			return structream.Schema{}, fmt.Errorf("unknown type %q for column %q", tokens[1], tokens[0])
		}
		fields = append(fields, structream.Field{Name: tokens[0], Type: typ})
	}
	return structream.NewSchema(fields...), nil
}

func splitBinding(s string) (name, dir string, err error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("bad binding %q (want name=dir)", s)
	}
	return s[:i], s[i+1:], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssql:", err)
	os.Exit(1)
}
