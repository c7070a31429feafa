package omb

import (
	"fmt"

	"mv2j/internal/core"
	"mv2j/internal/nativempi"
	"mv2j/internal/vtime"
)

// endpoint adapts one rank to the selected mode, so each benchmark
// body is written once.
type endpoint struct {
	m    *core.MPI
	mode Mode
}

type waiter interface{ wait() error }

type coreWaiter struct{ r *core.Request }

func (w coreWaiter) wait() error { _, err := w.r.Wait(); return err }

type nativeWaiter struct{ r *nativempi.Request }

func (w nativeWaiter) wait() error { _, err := w.r.Wait(); return err }

func (e endpoint) rank() int { return e.m.CommWorld().Rank() }
func (e endpoint) size() int { return e.m.CommWorld().Size() }

func (e endpoint) send(buf msgBuf, n, dst, tag int) error {
	if e.mode == ModeNative {
		return e.m.Proc().CommWorld().Send(buf.raw()[:n], dst, tag)
	}
	return e.m.CommWorld().Send(buf.obj(), n, core.BYTE, dst, tag)
}

func (e endpoint) recv(buf msgBuf, n, src, tag int) error {
	if e.mode == ModeNative {
		_, err := e.m.Proc().CommWorld().Recv(buf.raw()[:n], src, tag)
		return err
	}
	_, err := e.m.CommWorld().Recv(buf.obj(), n, core.BYTE, src, tag)
	return err
}

func (e endpoint) isend(buf msgBuf, n, dst, tag int) (waiter, error) {
	if e.mode == ModeNative {
		r, err := e.m.Proc().CommWorld().Isend(buf.raw()[:n], dst, tag)
		if err != nil {
			return nil, err
		}
		return nativeWaiter{r}, nil
	}
	r, err := e.m.CommWorld().Isend(buf.obj(), n, core.BYTE, dst, tag)
	if err != nil {
		return nil, err
	}
	return coreWaiter{r}, nil
}

func (e endpoint) irecv(buf msgBuf, n, src, tag int) (waiter, error) {
	if e.mode == ModeNative {
		r, err := e.m.Proc().CommWorld().Irecv(buf.raw()[:n], src, tag)
		if err != nil {
			return nil, err
		}
		return nativeWaiter{r}, nil
	}
	r, err := e.m.CommWorld().Irecv(buf.obj(), n, core.BYTE, src, tag)
	if err != nil {
		return nil, err
	}
	return coreWaiter{r}, nil
}

func (e endpoint) barrier() error {
	if e.mode == ModeNative {
		return e.m.Proc().CommWorld().Barrier()
	}
	return e.m.CommWorld().Barrier()
}

// waitAny blocks until one of the non-nil waiters completes and
// returns its index (-1 when none are active). All waiters in a slice
// come from one endpoint, so they are uniformly core- or native-mode.
func waitAny(ws []waiter) (int, error) {
	if len(ws) == 0 {
		return -1, nil
	}
	native := false
	for _, w := range ws {
		if w == nil {
			continue
		}
		if _, ok := w.(nativeWaiter); ok {
			native = true
		}
		break
	}
	if native {
		reqs := make([]*nativempi.Request, len(ws))
		for i, w := range ws {
			if w != nil {
				reqs[i] = w.(nativeWaiter).r
			}
		}
		i, _, err := nativempi.Waitany(reqs)
		return i, err
	}
	// A stack array, with make for longer lists: a shared scratch slice
	// would be clobbered by a second simulated thread blocked here.
	var stack [core.WaitanyStack]*core.Request
	reqs := stack[:min(len(ws), core.WaitanyStack)]
	if len(ws) > core.WaitanyStack {
		reqs = make([]*core.Request, len(ws))
	}
	for i, w := range ws {
		if w != nil {
			reqs[i] = w.(coreWaiter).r
		}
	}
	i, _, err := core.Waitany(reqs)
	return i, err
}

func waitAll(ws []waiter) error {
	for _, w := range ws {
		if err := w.wait(); err != nil {
			return err
		}
	}
	return nil
}

const (
	tagData = 1
	tagAck  = 2
)

// Latency runs the osu_latency ping-pong between ranks 0 and 1
// (paper Algorithm 1). With Opts.Validate it additionally populates
// each outgoing message and verifies each incoming one inside the
// timed region — the §VI-F experiment.
func Latency(cfg Config) ([]Result, error) {
	sizeJVM(&cfg.Core, cfg.Opts.MaxSize)
	sink := &resultSink{}
	err := core.Run(cfg.Core, func(m *core.MPI) error {
		ep := endpoint{m, cfg.Mode}
		if ep.size() < 2 {
			return fmt.Errorf("omb: latency needs at least 2 ranks")
		}
		me := ep.rank()
		var sbuf, rbuf msgBuf
		if me <= 1 {
			var err error
			if sbuf, err = newBuf(m, cfg.Mode, cfg.Opts.MaxSize); err != nil {
				return err
			}
			if rbuf, err = newBuf(m, cfg.Mode, cfg.Opts.MaxSize); err != nil {
				return err
			}
		}
		for _, size := range cfg.Opts.Sizes() {
			iters, warm := cfg.Opts.itersFor(size)
			if me <= 1 {
				var sw vtime.Stopwatch
				for i := -warm; i < iters; i++ {
					if i == 0 {
						sw = vtime.StartStopwatch(m.Clock())
					}
					if me == 0 {
						if cfg.Opts.Validate {
							sbuf.populate(i, size)
						}
						if err := ep.send(sbuf, size, 1, tagData); err != nil {
							return err
						}
						if err := ep.recv(rbuf, size, 1, tagData); err != nil {
							return err
						}
						if cfg.Opts.Validate {
							if err := rbuf.verify(i, size); err != nil {
								return err
							}
						}
					} else {
						if err := ep.recv(rbuf, size, 0, tagData); err != nil {
							return err
						}
						if cfg.Opts.Validate {
							if err := rbuf.verify(i, size); err != nil {
								return err
							}
							sbuf.populate(i, size)
						}
						if err := ep.send(sbuf, size, 0, tagData); err != nil {
							return err
						}
					}
				}
				if me == 0 {
					sink.add(Result{Size: size, LatencyUs: avgLatencyUs(sw.Elapsed(), 2*iters)})
				}
			}
			if err := ep.barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sink.sorted(), nil
}

// Bandwidth runs osu_bw: rank 0 streams a window of non-blocking
// sends per iteration; rank 1 acknowledges each window.
func Bandwidth(cfg Config) ([]Result, error) {
	return bandwidth(cfg, false)
}

// BiBandwidth runs osu_bibw: both directions stream simultaneously.
func BiBandwidth(cfg Config) ([]Result, error) {
	return bandwidth(cfg, true)
}

func bandwidth(cfg Config, bidirectional bool) ([]Result, error) {
	sink := &resultSink{}
	window := cfg.Opts.Window
	if window <= 0 {
		window = 64
	}
	// A full window of array sends holds that many staged pool buffers
	// alive at once; size the arena for it.
	sizeJVM(&cfg.Core, (window/4+2)*cfg.Opts.MaxSize)
	err := core.Run(cfg.Core, func(m *core.MPI) error {
		ep := endpoint{m, cfg.Mode}
		if ep.size() < 2 {
			return fmt.Errorf("omb: bandwidth needs at least 2 ranks")
		}
		me := ep.rank()
		var sbuf, rbuf, ack msgBuf
		if me <= 1 {
			var err error
			if sbuf, err = newBuf(m, cfg.Mode, cfg.Opts.MaxSize); err != nil {
				return err
			}
			if rbuf, err = newBuf(m, cfg.Mode, cfg.Opts.MaxSize); err != nil {
				return err
			}
			if ack, err = newBuf(m, cfg.Mode, 4); err != nil {
				return err
			}
		}
		ws := make([]waiter, 0, 2*window)
		for _, size := range cfg.Opts.Sizes() {
			iters, warm := cfg.Opts.itersFor(size)
			if me <= 1 {
				var sw vtime.Stopwatch
				for i := -warm; i < iters; i++ {
					if i == 0 {
						sw = vtime.StartStopwatch(m.Clock())
					}
					ws = ws[:0]
					sends := me == 0 || bidirectional
					recvs := me == 1 || bidirectional
					if sends && cfg.Opts.Validate {
						// Every message of the window carries the same
						// iteration pattern; the sender must not touch the
						// buffer again until the window completes.
						sbuf.populate(i, size)
					}
					if recvs {
						for k := 0; k < window; k++ {
							w, err := ep.irecv(rbuf, size, 1-me, tagData)
							if err != nil {
								return err
							}
							ws = append(ws, w)
						}
					}
					if sends {
						for k := 0; k < window; k++ {
							w, err := ep.isend(sbuf, size, 1-me, tagData)
							if err != nil {
								return err
							}
							ws = append(ws, w)
						}
					}
					if err := waitAll(ws); err != nil {
						return err
					}
					if recvs && cfg.Opts.Validate {
						if err := rbuf.verify(i, size); err != nil {
							return err
						}
					}
					// Window handshake.
					if me == 0 {
						if err := ep.recv(ack, 4, 1, tagAck); err != nil {
							return err
						}
					} else {
						if err := ep.send(ack, 4, 0, tagAck); err != nil {
							return err
						}
					}
				}
				if me == 0 {
					elapsed := sw.Elapsed().Seconds()
					bytes := float64(size) * float64(window) * float64(iters)
					if bidirectional {
						bytes *= 2
					}
					sink.add(Result{Size: size, MBps: bytes / elapsed / 1e6})
				}
			}
			if err := ep.barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sink.sorted(), nil
}
