package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/gateway"
)

// server is one HTTP handler served on a 127.0.0.1 listener, exactly as
// the binaries serve it.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for Serve to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timed-out drain still closes every connection
	_ = s.srv.Close()
	<-s.done
}

// member is one xbarserver: an engine behind engine.NewHTTPHandler.
type member struct {
	eng *engine.Engine
	srv *server
}

// fleet is gateway-hot's serving program: two members behind the gateway
// handler. url is where clients send.
type fleet struct {
	members []*member
	gw      *gateway.Gateway
	gwSrv   *server
	url     string
}

// startFleet builds the serving program over the given journal
// directories, one member per directory and the gateway in front, with the
// binaries' default options except Workers = nproc and the trace sample
// rate.
func (r *run) startFleet(dirs []string, sampleRate float64) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for _, dir := range dirs {
		e := engine.New(engine.Options{Workers: r.nproc, JournalDir: dir, TraceSampleRate: sampleRate})
		s, err := serve(engine.NewHTTPHandler(e))
		if err != nil {
			e.Close()
			f.stop()
			return nil, err
		}
		f.members = append(f.members, &member{eng: e, srv: s})
		urls = append(urls, s.url)
	}
	g, err := gateway.New(gateway.Options{Members: urls, TraceSampleRate: sampleRate})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gw = g
	if f.gwSrv, err = serve(g.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	f.url = f.gwSrv.url
	return f, nil
}

// urls lists every listener, members first.
func (f *fleet) urls() []string {
	var out []string
	for _, m := range f.members {
		out = append(out, m.srv.url)
	}
	if f.gwSrv != nil {
		out = append(out, f.gwSrv.url)
	}
	return out
}

// stop tears the fleet down front to back: gateway, then each member's
// streams, listener and engine (which flushes and closes its journal).
func (f *fleet) stop() {
	if f.gwSrv != nil {
		f.gwSrv.stop()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, m := range f.members {
		m.eng.StopStreams()
		m.srv.stop()
		m.eng.Close()
	}
}

// waitReady polls GET /readyz on every url until each answers 200.
func waitReady(hc *http.Client, urls []string) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range urls {
		for {
			resp, err := hc.Get(u + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/readyz not 200 after 30s (last error %v)", u, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
