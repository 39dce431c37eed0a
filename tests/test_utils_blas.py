"""Tests for :mod:`repro.utils.blas`."""

import threading

import pytest

from repro.utils.blas import blas_threads, single_thread_blas


class TestSingleThreadBlas:
    def test_pins_one_thread_and_restores_the_count(self, two_blas_threads):
        with single_thread_blas():
            assert two_blas_threads() == 1
        assert two_blas_threads() == 2
        assert blas_threads() == 2

    def test_restores_the_count_when_the_block_raises(self, two_blas_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with single_thread_blas():
                raise RuntimeError("inside")
        assert two_blas_threads() == 2

    def test_blas_threads_waits_out_a_pin_held_by_another_thread(self, two_blas_threads):
        """A reader never reports another thread's temporary pin of 1."""
        pinned, release = threading.Event(), threading.Event()
        read: list = []

        def hold_pin():
            with single_thread_blas():
                pinned.set()
                release.wait(30)

        holder = threading.Thread(target=hold_pin)
        reader = threading.Thread(target=lambda: read.append(blas_threads()))
        holder.start()
        try:
            assert pinned.wait(30)
            reader.start()
            reader.join(0.2)
            assert reader.is_alive() and read == []
        finally:
            release.set()
            holder.join(30)
        reader.join(30)
        assert read == [2]
