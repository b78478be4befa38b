// The benchmark is a module of its own so the root module's build and test
// commands never see it. The path keeps the portals3/ prefix, which is what
// lets it import portals3/internal/... through the replace below.
module portals3/bench

go 1.22

require portals3 v0.0.0

replace portals3 => ../
