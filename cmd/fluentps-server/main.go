// Command fluentps-server runs one FluentPS parameter-server node of a
// real TCP cluster. Each server owns a shard of the model and controls
// that shard's synchronization independently via its pull/push conditions
// (overlap synchronization).
//
// Example (server rank 0 of 2):
//
//	fluentps-server -rank 0 -sync pssp -staleness 3 -prob 0.5 \
//	  -scheduler 127.0.0.1:7070 \
//	  -servers 127.0.0.1:7071,127.0.0.1:7072 \
//	  -workerAddrs 127.0.0.1:7081,127.0.0.1:7082
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"github.com/fluentps/fluentps/internal/clustercfg"
	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/transport"
)

func main() {
	var flags clustercfg.Flags
	rank := flag.Int("rank", 0, "this server's rank")
	joining := flag.Bool("joining", false, "this server joins a live cluster: start empty and wait for fluentps-admin join to stream keys in")
	roAddr := flag.String("roaddr", "", "listen address for the read-optimized serving tier (mux sessions of MsgPullRO streams); empty disables it")
	snapshotEvery := flag.Int("snapshotEvery", 0, "once a reader has appeared, publish an RO snapshot every N V_train ticks (0 = every tick, <0 = never: the boot snapshot only)")
	readerPool := flag.Int("readerPool", 0, "RO reader-pool goroutines (0 = default, <0 = serve inline on the apply loop)")
	maxStreams := flag.Int("maxStreams", 0, "per-session cap on concurrently open RO streams (0 = transport default)")
	flags.Register(flag.CommandLine)
	flag.Parse()

	cluster, err := flags.Cluster()
	if err != nil {
		log.Fatal(err)
	}
	if *rank < 0 || *rank >= len(cluster.ServerAddrs) {
		log.Fatalf("rank %d out of range for %d servers", *rank, len(cluster.ServerAddrs))
	}
	work, err := flags.Workload()
	if err != nil {
		log.Fatal(err)
	}
	sync, err := flags.SyncConfig(cluster.Workers())
	if err != nil {
		log.Fatal(err)
	}
	// A joining server's rank is listed last in -servers; the established
	// cluster's slicing spans the other ranks, so the joiner starts with
	// zero keys and receives its share from the admin-driven view change.
	established := len(cluster.ServerAddrs)
	if *joining {
		established--
		if established < 1 {
			log.Fatal("-joining needs at least one established server before this one")
		}
		if *rank != established {
			log.Fatalf("-joining requires this server to be the last rank (%d), got %d", established, *rank)
		}
	}
	layout, assign, err := sync.Slicing(work.Model, established)
	if err != nil {
		log.Fatal(err)
	}

	// Every node derives the identical w0 from the shared seed.
	w0 := make([]float64, work.Model.Dim())
	work.Model.Init(mathx.RNG(work.Seed, "cluster.init"), w0)

	reg, stopTel, err := flags.StartTelemetry(fmt.Sprintf("fluentps-server[%d]", *rank), log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopTel()

	tcpEP, err := transport.ListenTCP(transport.Server(*rank), cluster.ServerAddrs[*rank], cluster.Book())
	if err != nil {
		log.Fatal(err)
	}
	// The demultiplexer lets this process serve additional server
	// identities later: after a promotion the dead rank's traffic arrives
	// at this address and must land on a second endpoint.
	demux := transport.NewDemux(tcpEP)
	// Wrapping the server endpoint faults the response direction (acks,
	// pull responses) too, so -flaky* flags exercise both halves of every
	// exchange.
	ep := flags.WrapFaultyObserved(demux.Main(), reg)
	defer ep.Close()

	// The bootstrap view covers every address the flags list; a joiner's
	// assignment spans only the established ranks, leaving it keyless
	// until fluentps-admin join streams its share in.
	view := flags.BootstrapView(cluster, assign)

	if *joining {
		log.Printf("fluentps-server[%d]: joining live cluster — starting empty, awaiting admin-driven view change", *rank)
	} else if err := core.RegisterAsync(ep); err != nil {
		log.Fatal(err)
	}
	srv, err := core.NewServer(ep, core.ServerConfig{
		Rank:       *rank,
		NumWorkers: cluster.Workers(),
		Layout:     layout,
		Assignment: assign,
		View:       view,
		Model:      sync.Model,
		Drain:      sync.Drain,
		Init: func(k keyrange.Key, seg []float64) {
			copy(seg, layout.Slice(w0, k))
		},
		Seed:          work.Seed,
		SnapshotEvery: *snapshotEvery,
		ReaderPool:    *readerPool,
		DedupWindow:   flags.DedupWindow,
		ApplyWorkers:  flags.ApplyWorkers,
		ApplyStripes:  flags.ApplyStripes,
		Telemetry:     reg,
		AdaptEvery:    sync.AdaptEvery,
		Adaptive:      sync.Adaptive,
		OpenEndpoint: func(id transport.NodeID) (transport.Endpoint, error) {
			return demux.Open(id)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The read tier listens on its own port: each inbound TCP connection
	// becomes one mux session, each accepted stream one HandleRO loop
	// answering MsgPullRO from published snapshots. The process exits with
	// Run; readers are best-effort and need no drain ceremony.
	if *roAddr != "" {
		ln, err := net.Listen("tcp", *roAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		log.Printf("fluentps-server[%d]: read tier on %s (pool=%d, every=%d, maxStreams=%d)",
			*rank, ln.Addr(), *readerPool, *snapshotEvery, *maxStreams)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				sess := transport.NewMuxServer(conn, transport.MuxConfig{
					MaxStreams: *maxStreams,
					Telemetry:  reg,
				})
				go func() {
					defer sess.Close()
					for {
						stream, err := sess.AcceptStream()
						if err != nil {
							return
						}
						go func() { _ = srv.HandleRO(stream) }()
					}
				}()
			}
		}()
	}
	log.Printf("fluentps-server[%d]: %d keys, model %s, drain %s, listening on %s",
		*rank, len(srv.Keys()), sync.Model, sync.Drain, tcpEP.Addr())
	if err := srv.Run(); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	log.Printf("fluentps-server[%d]: done — pulls=%d pushes=%d DPRs=%d advances=%d dedup=%d",
		*rank, st.Pulls, st.Pushes, st.DPRs, st.Advances, st.DedupHits)
}
