"""The benchmark of record: four workloads run from outside the program.

``python -m bench`` (from the repository root) runs them; see README.md.
"""
