# Convenience targets mirroring the CI gates.

.PHONY: lint test bench-gates

# Style (ruff) + determinism/hash-integrity (repro lint) in one gate.
lint:
	./scripts/lint.sh

# The tier-1 suite, exactly as CI runs it.
test:
	PYTHONPATH=src python -m pytest -x -q

# The single-commit timing gates CI runs (same-run ratios and
# cross-machine ceilings); about 30 s.
bench-gates:
	PYTHONPATH=src python benchmarks/gates.py
