"""Finite groupoids, presentations of their covers, and finite topologies.

The package root exports nothing: import each name from the module that
defines it (`groupoids.core`, `groupoids.words`, `groupoids.monodromy`,
`groupoids.topology`, `groupoids.loctriv`, `groupoids.interchange`,
`groupoids.dot`), or run the checks through `groupoids.cli`.
"""
