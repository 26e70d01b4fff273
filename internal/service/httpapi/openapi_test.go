package httpapi

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/service/job"
)

// specRoutes extracts the path+method pairs from api/openapi.yaml with
// a deliberately naive indentation scan: paths are 2-space-indented
// keys under "paths:", operations are the 4-space-indented HTTP verbs
// beneath each.  The spec is hand-written to this layout; the point is
// catching drift between the YAML and the mux, not parsing YAML.
func specRoutes(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading OpenAPI spec: %v", err)
	}
	verbs := map[string]bool{
		"get": true, "post": true, "put": true, "patch": true,
		"delete": true, "head": true, "options": true,
	}
	routes := make(map[string]bool)
	inPaths := false
	current := ""
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimRight(line, " \r")
		switch {
		case trimmed == "paths:":
			inPaths = true
		case inPaths && len(trimmed) > 0 && trimmed[0] != ' ':
			inPaths = false // next top-level section
		case inPaths && strings.HasPrefix(trimmed, "  ") && !strings.HasPrefix(trimmed, "   ") && strings.HasSuffix(trimmed, ":"):
			current = strings.TrimSuffix(strings.TrimSpace(trimmed), ":")
		case inPaths && strings.HasPrefix(trimmed, "    ") && !strings.HasPrefix(trimmed, "     ") && strings.HasSuffix(trimmed, ":"):
			verb := strings.TrimSuffix(strings.TrimSpace(trimmed), ":")
			if verbs[verb] && current != "" {
				routes[strings.ToUpper(verb)+" "+current] = true
			}
		}
	}
	if len(routes) == 0 {
		t.Fatalf("no routes parsed from %s; layout changed?", path)
	}
	return routes
}

// TestOpenAPIRouteSync fails when api/openapi.yaml and the server's
// registered routes drift apart, in either direction.  Run directly by
// scripts/openapi_routes_check.sh (and CI); with -dump it prints the
// served route table instead of checking.
func TestOpenAPIRouteSync(t *testing.T) {
	s := New(Config{
		Store:   job.NewStore(1),
		Sched:   sched.NewFair(sched.FairConfig{Workers: 1}),
		DataDir: t.TempDir(),
	})
	served := make(map[string]bool)
	var servedList []string
	for _, rt := range s.Routes() {
		key := rt.Method + " " + rt.Pattern
		served[key] = true
		servedList = append(servedList, key)
	}

	spec := specRoutes(t, filepath.Join("..", "..", "..", "api", "openapi.yaml"))

	var missing, stale []string
	for key := range served {
		if !spec[key] {
			missing = append(missing, key)
		}
	}
	for key := range spec {
		if !served[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, key := range missing {
		t.Errorf("served route %q is missing from api/openapi.yaml", key)
	}
	for _, key := range stale {
		t.Errorf("api/openapi.yaml documents %q but the server does not register it", key)
	}
	if t.Failed() {
		fmt.Println("served routes:")
		sort.Strings(servedList)
		for _, key := range servedList {
			fmt.Println("  " + key)
		}
	}
}
