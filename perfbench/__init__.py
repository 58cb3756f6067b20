"""End-to-end benchmark of the debug loop; see :mod:`perfbench.run`."""
