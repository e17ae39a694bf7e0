package main

import (
	"fmt"
	"net/url"
	"strconv"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/tiles"
)

// Endpoints a query can address.
const (
	epRender   = "render"
	epHotspots = "hotspots"
	epTiles    = "tiles"
)

// query is one generated request: everything the URL carries, kept in
// typed form so the checker and the traced replay can issue the same
// request through the library.
type query struct {
	endpoint string
	dataset  string
	n        int
	dseed    int64 // the dataset's generator seed
	eps      float64
	res      quad.Resolution // render and hotspots
	win      quad.Window     // zero: the dataset's default window
	tauK     float64         // hotspots: τ = μ + k·σ
	tile     tiles.Coord     // tiles
	tileSize int             // tiles: the server's tile edge
	revisit  bool            // the generator repeated an earlier view or key
	twice    bool            // sent on two connections at once
}

// values are the query parameters. They go through url.Values so that a τ
// spec such as "mu+1" reaches the server with its plus sign intact.
func (q query) values() url.Values {
	v := url.Values{}
	v.Set("n", strconv.Itoa(q.n))
	v.Set("seed", strconv.FormatInt(q.dseed, 10))
	v.Set("eps", strconv.FormatFloat(q.eps, 'g', -1, 64))
	if q.endpoint == epTiles {
		return v
	}
	v.Set("dataset", q.dataset)
	v.Set("res", fmt.Sprintf("%dx%d", q.res.W, q.res.H))
	if !q.win.IsZero() {
		f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
		v.Set("bbox", f(q.win.MinX)+","+f(q.win.MinY)+","+f(q.win.MaxX)+","+f(q.win.MaxY))
	}
	if q.endpoint == epHotspots {
		v.Set("tau", "mu+"+strconv.FormatFloat(q.tauK, 'g', -1, 64))
	}
	return v
}

// path is the request URI.
func (q query) path() string {
	if q.endpoint == epTiles {
		return fmt.Sprintf("/tiles/%s/%d/%d/%d.png?%s",
			q.dataset, q.tile.Z, q.tile.X, q.tile.Y, q.values().Encode())
	}
	return "/" + q.endpoint + "?" + q.values().Encode()
}

// size is the PNG size the response must have.
func (q query) size() (w, h int) {
	if q.endpoint == epTiles {
		return q.tileSize, q.tileSize
	}
	return q.res.W, q.res.H
}

// kdvKey identifies the KDV build the query needs (the server's cache key
// has the same parts: dataset, n, seed; kernel and method stay default).
type kdvKey struct {
	dataset string
	n       int
	seed    int64
}

func (q query) key() kdvKey { return kdvKey{q.dataset, q.n, q.dseed} }

// tileKey identifies one tile of one tileset.
type tileKey struct {
	set kdvKey
	eps float64
	c   tiles.Coord
}

func (q query) tileKey() tileKey { return tileKey{q.key(), q.eps, q.tile} }
