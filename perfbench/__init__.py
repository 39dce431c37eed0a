"""End-to-end benchmark of the MFTI fit system (see ``perfbench/README.md``)."""
