package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// WriteJSON writes v to path as indented JSON (the committed BENCH_*.json
// evidence files).
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
