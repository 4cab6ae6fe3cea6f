// Command pleroma-d runs a PLEROMA deployment as a long-lived daemon:
// the emulated network, the partitioned controller fabric, and the TCP
// control surface that cmd/pleroma-pub and cmd/pleroma-sub (or any
// pleroma.Dial client) speak to.
//
// Usage:
//
//	pleroma-d -listen 127.0.0.1:7466
//	pleroma-d -listen 127.0.0.1:7466 -state /var/lib/pleroma -obs-addr :9090
//
// With -state, every partition's control-op journal is file-backed and a
// snapshot is written on shutdown; on the next boot the daemon rebuilds
// each partition's controller from snapshot plus journal suffix
// (restart-with-state). SIGINT/SIGTERM trigger a graceful drain:
// in-flight requests finish, queued deliveries flush, clients receive a
// goodbye frame, and state is snapshotted before exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"pleroma"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "pleroma-d:", err)
		os.Exit(1)
	}
}

// parseSchema parses "name:bits,name:bits" into schema attributes.
func parseSchema(s string) ([]pleroma.Attribute, error) {
	var attrs []pleroma.Attribute
	for _, part := range strings.Split(s, ",") {
		name, bitsStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("schema term %q: want name:bits", part)
		}
		bits, err := strconv.Atoi(bitsStr)
		if err != nil {
			return nil, fmt.Errorf("schema term %q: %w", part, err)
		}
		attrs = append(attrs, pleroma.Attribute{Name: name, Bits: bits})
	}
	return attrs, nil
}

func run(args []string, w io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("pleroma-d", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:7466", "TCP address to serve the control surface on (use :0 for an ephemeral port)")
		state      = fs.String("state", "", "state directory for file-backed journals and shutdown snapshots (enables restart-with-state)")
		obsAddr    = fs.String("obs-addr", "", "serve the observability endpoint (/metrics, /healthz, /readyz, /traces, /debug/pprof) on this address")
		schema     = fs.String("schema", "price:10,volume:10", "event schema as name:bits,name:bits")
		pods       = fs.Int("pods", 4, "fat-tree pods")
		cores      = fs.Int("cores", 4, "fat-tree core switches")
		hosts      = fs.Int("hosts-per-edge", 2, "fat-tree hosts per edge switch")
		partitions = fs.Int("partitions", 1, "controller partitions")
		shards     = fs.Int("shards", 1, "parallel simulation shards")

		readTimeout  = fs.Duration("read-timeout", 0, "per-frame read deadline on client connections (0 = none)")
		writeTimeout = fs.Duration("write-timeout", 0, "per-flush write deadline on client connections (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	attrs, err := parseSchema(*schema)
	if err != nil {
		return err
	}
	sch, err := pleroma.NewSchema(attrs...)
	if err != nil {
		return err
	}

	opts := []pleroma.Option{
		pleroma.WithFatTree(*pods, *cores, *hosts),
		pleroma.WithPartitions(*partitions),
		pleroma.WithShards(*shards),
		pleroma.WithObservability(0),
		pleroma.WithTransport(pleroma.TransportOptions{
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
		}),
	}
	if *state != "" {
		if err := os.MkdirAll(*state, 0o755); err != nil {
			return err
		}
		opts = append(opts, pleroma.WithJournalDir(*state))
	}
	sys, err := pleroma.NewSystem(sch, opts...)
	if err != nil {
		return err
	}
	defer sys.Close()

	// Restart-with-state: any partition with a prior snapshot or a
	// non-empty journal on disk is rebuilt before serving. The listener
	// opens only after recovery completes, so no client request can race
	// a partition's controller swap.
	if *state != "" {
		for _, p := range sys.Partitions() {
			snap, _ := os.ReadFile(pleroma.SnapshotPath(*state, p))
			fi, err := os.Stat(pleroma.JournalPath(*state, p))
			hasJournal := err == nil && fi.Size() > 0
			if len(snap) == 0 && !hasJournal {
				continue
			}
			rep, err := sys.Recover(p, snap)
			if err != nil {
				return fmt.Errorf("recover partition %d: %w", p, err)
			}
			fmt.Fprintf(w, "recovered partition %d: snapshot=%v replayed=%d epoch=%d\n",
				p, rep.FromSnapshot, rep.Replayed, rep.Epoch)
		}
	}

	addr, err := sys.StartListener(*listen)
	if err != nil {
		return err
	}
	// Scripts parse the first "listening on" line; keep it stable.
	fmt.Fprintf(w, "listening on %s\n", addr)
	fmt.Fprintf(w, "topology: %d hosts, %d switches, %d partitions, %d shards\n",
		len(sys.Hosts()), len(sys.Switches()), len(sys.Partitions()), sys.Shards())

	if *obsAddr != "" {
		srv, err := sys.ServeObservability(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "observability on http://%s\n", srv.Addr())
	}

	<-stop
	fmt.Fprintln(w, "draining")
	sys.StopListener() // drain before snapshotting: no request may race it
	if *state != "" {
		// PersistSnapshot makes each snapshot durable (fsynced file and
		// directory) before compacting the journal, so a crash mid-shutdown
		// never discards acknowledged ops.
		for _, p := range sys.Partitions() {
			if err := sys.PersistSnapshot(p, *state); err != nil {
				return fmt.Errorf("snapshot partition %d: %w", p, err)
			}
		}
		fmt.Fprintf(w, "snapshotted %d partitions to %s\n", len(sys.Partitions()), *state)
	}
	// sys.Close (deferred) stops the transport server gracefully: requests
	// in flight finish, queued deliveries flush, clients get a goodbye.
	return nil
}
